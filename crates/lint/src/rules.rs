//! The invariant rules: determinism (D), panic-freedom (S), lock
//! discipline (L), telemetry hygiene (T) and hot-path allocation (P),
//! run over a [`FileModel`].
//!
//! Detection is split from policy: [`collect_sites`] runs *every*
//! detector over a file and returns raw sites (with token indexes, so
//! the whole-program passes in [`crate::reach`] / [`crate::lockorder`]
//! can attribute them to functions), while [`check_file`] filters those
//! sites down to the rules enabled for the file and applies waivers.
//! Sanctioned sites — `#[cfg(test)]` regions, `clock_line_allow`
//! matches, `spawn_allowed` files — are dropped at collection time and
//! are invisible to both the per-file rules and the transitive passes.

use crate::lexer::{Tok, TokKind};
use crate::model::FileModel;
pub use crate::parser::fn_body;
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
    /// D: `env::var` / `random`-named calls in committed sim state.
    EnvRandom,
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
    /// D (whole-program): a determinism hazard reachable from
    /// `Cluster::step` through helpers.
    DeterminismTaint,
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
            Rule::EnvRandom => "env-random",
            Rule::Panic => "panic",
            Rule::SliceIndex => "slice-index",
            Rule::NestedLock => "nested-lock",
            Rule::MetricName => "metric-name",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::TransitiveAlloc => "transitive-alloc",
            Rule::PanicReach => "panic-reach",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::LockCycle => "lock-cycle",
            Rule::Waiver => "waiver",
        }
    }

    /// All rule names (for waiver validation).
    pub fn known_names() -> &'static [&'static str] {
        &[
            "clock",
            "thread-spawn",
            "map-iter",
            "env-random",
            "panic",
            "slice-index",
            "nested-lock",
            "metric-name",
            "hot-path-alloc",
            "transitive-alloc",
            "panic-reach",
            "determinism-taint",
            "lock-cycle",
        ]
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
    /// D: env/random.
    pub env_random: bool,
    /// S: panic sites.
    pub panics: bool,
    /// S: slice indexing.
    pub slice_index: bool,
    /// L: nested locks.
    pub locks: bool,
    /// T: metric-name literals.
    pub metric_name: bool,
    /// P: allocation in `// lint: hot-path` fns.
    pub hot_path_alloc: bool,
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
            env_random: true,
            panics: true,
            slice_index: true,
            locks: true,
            metric_name: true,
            hot_path_alloc: true,
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

/// Runs every detector over `model` and returns all raw sites, with
/// sanctioned-site scoping (test regions, `clock_line_allow`,
/// `spawn_allowed`) already applied. The caller decides which rules are
/// *enforced* per-file; the whole-program passes consume the rest.
pub fn collect_sites(model: &FileModel, rules: &RuleSet) -> Vec<RawSite> {
    let mut raw = Vec::new();
    clock_rule(model, rules, &mut raw);
    if !rules.spawn_allowed {
        spawn_rule(model, &mut raw);
    }
    map_iter_rule(model, &mut raw);
    env_random_rule(model, &mut raw);
    panic_rule(model, &mut raw);
    slice_index_rule(model, &mut raw);
    lock_rule(model, &mut raw);
    metric_rule(model, &mut raw);
    alloc_rule(model, &mut raw);
    raw.sort_by_key(|a| (a.line, a.rule, a.tok));
    raw
}

/// Token ranges of fn bodies annotated `// lint: hot-path`.
pub fn hot_fn_ranges(model: &FileModel) -> Vec<(usize, usize)> {
    let toks = &model.toks;
    let mut out = Vec::new();
    for &marker in &model.hot_path_lines {
        let Some(fn_idx) = toks
            .iter()
            .position(|t| t.line > marker && t.is_ident("fn"))
        else {
            continue;
        };
        if let Some(range) = fn_body(toks, fn_idx) {
            out.push(range);
        }
    }
    out
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
        Rule::EnvRandom => rules.env_random,
        Rule::Panic => rules.panics,
        Rule::SliceIndex => rules.slice_index,
        Rule::NestedLock => rules.locks,
        Rule::MetricName => rules.metric_name,
        Rule::HotPathAlloc => {
            rules.hot_path_alloc && hot_ranges.iter().any(|&(s0, e0)| s.tok >= s0 && s.tok < e0)
        }
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
            if !Rule::known_names().contains(&w.rule.as_str()) {
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

/// Runs every enabled per-file rule over one file and returns unwaived
/// findings (plus waiver-syntax findings), recording consumed waivers
/// in `used`.
pub fn check_file_collect(
    path: &str,
    model: &FileModel,
    rules: &RuleSet,
    used: &mut Vec<UsedWaiver>,
) -> Vec<Finding> {
    let sites = collect_sites(model, rules);
    check_sites(path, model, rules, &sites, used)
}

/// As [`check_file_collect`], but over pre-collected sites (the
/// whole-program driver collects once and reuses them).
pub fn check_sites(
    path: &str,
    model: &FileModel,
    rules: &RuleSet,
    sites: &[RawSite],
    used: &mut Vec<UsedWaiver>,
) -> Vec<Finding> {
    let hot_ranges = hot_fn_ranges(model);
    let mut out = Vec::new();
    for s in sites {
        if !site_enabled(s, rules, &hot_ranges) {
            continue;
        }
        if let Some(f) = waiver_filter(
            path,
            model,
            s.line,
            &[s.rule.name()],
            s.rule,
            s.message.clone(),
            used,
        ) {
            out.push(f);
        }
    }
    waiver_syntax_findings(path, model, &mut out);
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup();
    out
}

/// Runs every enabled rule over one file and returns unwaived findings
/// (plus waiver-syntax findings).
pub fn check_file(path: &str, model: &FileModel, rules: &RuleSet) -> Vec<Finding> {
    check_file_collect(path, model, rules, &mut Vec::new())
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

fn env_random_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        if path_at(toks, i, &["env", "var"]) {
            site(
                out,
                i,
                toks[i].line,
                Rule::EnvRandom,
                "`env::var`",
                "`env::var` makes committed sim state depend on the \
                 environment"
                    .to_string(),
            );
        } else if toks[i].kind == TokKind::Ident
            && (toks[i].text.to_ascii_lowercase().contains("random")
                || toks[i].text == "thread_rng")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            site(
                out,
                i,
                toks[i].line,
                Rule::EnvRandom,
                "OS randomness",
                format!(
                    "`{}` call: nondeterministic randomness in committed \
                     sim state (seed a `SimRng` instead)",
                    toks[i].text
                ),
            );
        }
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

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// True if tokens at `i` form `. lock ( )` (no arguments) and `i` is the
/// method name.
pub(crate) fn lock_call_at(toks: &[Tok], i: usize) -> bool {
    i >= 1
        && toks[i].kind == TokKind::Ident
        && LOCK_METHODS.contains(&toks[i].text.as_str())
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

fn lock_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    // Find each fn body and scan it with a live-guard stack.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !model.in_test(i) {
            if let Some((body_start, body_end)) = fn_body(toks, i) {
                scan_fn_for_locks(model, body_start, body_end, out);
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
}

/// Scans one fn body: records guards from `let g = ….lock();` statements
/// and flags any later lock call while a guard is live at an enclosing
/// depth. `drop(g)` and scope exit release guards.
fn scan_fn_for_locks(model: &FileModel, start: usize, end: usize, out: &mut Raw) {
    let toks = &model.toks;
    let mut guards: Vec<(String, usize)> = Vec::new(); // (name, depth)
    let mut i = start;
    while i < end {
        let d = model.depth[i];
        guards.retain(|&(_, gd)| gd <= d);
        if toks[i].is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2).map(|t| t.text.clone()) {
                guards.retain(|(g, _)| *g != name);
            }
        }
        if lock_call_at(toks, i) {
            if let Some((holder, _)) = guards.first() {
                site(
                    out,
                    i,
                    toks[i].line,
                    Rule::NestedLock,
                    "nested lock",
                    format!(
                        "`.{}()` while guard `{holder}` is still live: \
                         nested locking risks deadlock under shard \
                         contention",
                        toks[i].text
                    ),
                );
            }
            // Does this call create a *held* guard? Only when the lock
            // call ends a `let <name> = …;` statement (possibly through
            // `?`): a lock temporary inside a larger expression dies at
            // the statement's end.
            let mut j = i + 3; // past `( )`
            while j < end && toks[j].is_punct('?') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct(';')) {
                if let Some(name) = let_binding_name(toks, i, start) {
                    if name != "_" {
                        guards.push((name, d));
                    }
                }
            }
        }
        i += 1;
    }
}

/// The `let [mut] <name>` binding of the statement containing token `i`,
/// scanning back at most to `floor`.
pub(crate) fn let_binding_name(toks: &[Tok], i: usize, floor: usize) -> Option<String> {
    let mut k = i;
    while k > floor {
        k -= 1;
        if toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}') {
            return None;
        }
        if toks[k].is_ident("let") {
            let mut n = k + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            return toks
                .get(n)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
        }
    }
    None
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
