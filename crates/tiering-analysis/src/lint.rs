//! chrono-lint: a lexical scanner for repo-specific determinism and
//! encapsulation rules.
//!
//! The scanner is deliberately line-oriented and token-based rather than a
//! real parser: every rule here keys off local, single-line evidence
//! (a call to `Instant::now`, a `.iter()` on a name bound to a `HashMap`,
//! an `as u32` next to a timestamp identifier), so a lexical pass finds the
//! same sites `syn` would at a fraction of the complexity — and with zero
//! dependencies, which the offline CI container requires.
//!
//! False positives are expected and cheap: any finding can be waived inline
//! with `// lint:allow(<rule>) reason` (same line or the line above), the
//! one waiver channel. CI requires zero *unwaived* findings.

use std::fmt;
use std::fs;
use std::path::Path;

/// Crates whose sources must stay bit-deterministic: no wall clocks, no
/// hash-order iteration. Everything the simulator's trace digests depend on.
pub const RESTRICTED_CRATES: [&str; 5] = [
    "sim-clock",
    "tiered-mem",
    "chrono-core",
    "tiering-policies",
    "workloads",
];

/// The shard/tenant modules whose code runs (or feeds) the parallel
/// shard-step phase and participates in the barrier protocol. The
/// determinism rules cover them on top of the restricted crates, and the
/// chrono-race rules (`rng-stream` mutable-RNG audit, `barrier-phase`
/// callgraph audit) apply to them alone. `harness` as a crate stays
/// unrestricted (it times real wall-clock runs), but its fleet runner is
/// shard-era code, and the tier-chaos sharded driver in tiering-verify
/// schedules the tier events every shard must observe at the same barrier.
pub const RESTRICTED_FILES: [&str; 4] = [
    "crates/tiering-policies/src/shard.rs",
    "crates/tiered-mem/src/partition.rs",
    "crates/harness/src/tenants.rs",
    "crates/tiering-verify/src/sharded.rs",
];

/// Cross-shard mutators that may only be invoked from the single-threaded
/// barrier section (or from setup code), never from the parallel shard-step
/// phase. The `barrier-phase` rule walks a callgraph-lite closure from the
/// `thread::scope` spawn bodies and the shard-step entry points and flags
/// any call to one of these inside that closure.
pub const BARRIER_ONLY_MUTATORS: [&str; 6] = [
    "admission_grants",
    "apply",
    "set_inflight_slots",
    "trace_admission",
    "split_weighted_tiers",
    "resplit_excluding",
];

/// Function names treated as entry points of the parallel shard-step phase
/// even when no `thread::scope` body names them directly (the sequential
/// 1-thread path calls them too, and the discipline must hold there).
const SHARD_STEP_ROOTS: [&str; 2] = ["step_to", "step_until"];

/// The rule catalog: `(name, what it flags)`. Kept in one place so docs,
/// tests, and `harness lint --rules` agree.
pub const RULES: [(&str, &str); 9] = [
    (
        "wall-clock",
        "Instant::now / SystemTime / thread_rng in a deterministic crate",
    ),
    (
        "hash-iter",
        "iteration over a HashMap/HashSet binding in a deterministic crate (order is random per process)",
    ),
    (
        "timestamp-cast",
        "bare `as` narrowing on a timestamp-like identifier (*_ms/*_us/*_at/cit*/stamp*) without wrapping_/checked_/try_into",
    ),
    (
        "unit-mix",
        "*_ms/us/ns and *_bucket/*_idx identifiers mixed in one arithmetic expression without a conversion helper",
    ),
    (
        "flags-encapsulation",
        "raw bit access to the PageFlags word (flags.0 / PageFlags(..)) outside tiered-mem/src/page.rs",
    ),
    (
        "bad-waiver",
        "a lint:allow waiver with no rule name or no reason text",
    ),
    (
        "shared-state",
        "interior mutability / shared-state primitive (static mut, RefCell, Mutex, Atomic*, unsafe, ...) in shard-visible deterministic code",
    ),
    (
        "rng-stream",
        "a DetRng::split stream consumed by two call sites in one file, or &mut DetRng crossing into barrier-phase code",
    ),
    (
        "barrier-phase",
        "a cross-shard mutator (admission grants, slot caps, partition surgery) reachable from the parallel shard-step phase",
    ),
];

/// How a finding was silenced, if it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waived {
    /// Not silenced: counts against CI.
    No,
    /// Silenced by an inline `// lint:allow(rule) reason` comment.
    Inline,
}

/// One lint hit: rule, location, and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The trimmed source line.
    pub snippet: String,
    /// Whether (and how) the finding is waived.
    pub waived: Waived,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )?;
        match self.waived {
            Waived::No => Ok(()),
            Waived::Inline => write!(f, "  (waived inline)"),
        }
    }
}

/// A full workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, waived or not, in (file, line) order.
    pub findings: Vec<Finding>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings that count against CI.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived == Waived::No)
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Splits a code fragment into identifier-ish tokens.
fn tokens(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices() {
        if is_ident_char(c) {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push(&code[s..i]);
        }
    }
    if let Some(s) = start {
        out.push(&code[s..]);
    }
    out
}

/// Index where the line comment starts, if any, skipping `//` inside string
/// literals.
fn comment_start(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped char
            b'"' => in_string = !in_string,
            b'/' if !in_string && i + 1 < bytes.len() && bytes[i + 1] == b'/' => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Blanks out string-literal contents (and quote-bearing char literals) so
/// rule patterns never match inside literals — e.g. a log message quoting
/// `flags.0` is not a raw flag access.
fn strip_strings(code: &str) -> String {
    let b = code.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    let mut in_str = false;
    while i < b.len() {
        let c = b[i];
        if in_str {
            if c == b'\\' {
                out.extend([b' ', b' ']);
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
                out.push(c);
            } else {
                out.push(b' ');
            }
        } else if c == b'"' {
            in_str = true;
            out.push(c);
        } else if c == b'\'' && i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\\' {
            // 'x' char literal (possibly 'x' == '"'): blank the payload.
            out.extend([b'\'', b' ', b'\'']);
            i += 3;
            continue;
        } else {
            out.push(c);
        }
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|_| code.to_string())
}

/// A parsed `lint:allow(rule) reason` waiver, or a malformed one.
enum WaiverParse {
    Ok(String),
    Malformed,
}

/// Extracts a waiver from a comment, if one is present.
fn parse_waiver(comment: &str) -> Option<WaiverParse> {
    let at = comment.find("lint:allow")?;
    let rest = &comment[at + "lint:allow".len()..];
    let Some(rest) = rest.trim_start().strip_prefix('(') else {
        return Some(WaiverParse::Malformed);
    };
    let Some(close) = rest.find(')') else {
        return Some(WaiverParse::Malformed);
    };
    let rule = rest[..close].trim();
    let reason = rest[close + 1..].trim();
    if rule.is_empty() || reason.len() < 3 {
        return Some(WaiverParse::Malformed);
    }
    Some(WaiverParse::Ok(rule.to_string()))
}

/// Whether an identifier looks like a millisecond/microsecond/timestamp
/// quantity (the `cit_from_word` wrap-bug class).
fn is_timestampish(ident: &str) -> bool {
    ident == "ms"
        || ident == "us"
        || ident.ends_with("_ms")
        || ident.ends_with("_us")
        || ident.ends_with("_ns")
        || ident.ends_with("_nanos")
        || ident.ends_with("_millis")
        || ident.ends_with("_micros")
        || ident.ends_with("_at")
        || ident.ends_with("_stamp")
        || ident.starts_with("cit")
        || ident.starts_with("stamp")
        || ident == "as_nanos"
}

/// Whether an identifier names a table slot rather than a time quantity.
fn is_bucketish(ident: &str) -> bool {
    ident.ends_with("_bucket") || ident.ends_with("_idx")
}

/// Whether a `name` occurrence at byte `at` in `code` has identifier
/// boundaries on both sides.
fn bounded_at(code: &str, at: usize, len: usize) -> bool {
    let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap());
    let after_ok = code[at + len..]
        .chars()
        .next()
        .map(|c| !is_ident_char(c))
        .unwrap_or(true);
    before_ok && after_ok
}

/// All boundary-checked occurrences of `name` in `code`.
fn ident_occurrences(code: &str, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let at = from + pos;
        if bounded_at(code, at, name.len()) {
            out.push(at);
        }
        from = at + name.len();
    }
    out
}

/// Methods on a hash container whose visit order is nondeterministic.
const HASH_ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// Names bound to `HashMap`/`HashSet` in `lines` (declarations, fields, fn
/// params). Token-before-the-type heuristic: the last identifier before the
/// type name that is not a keyword.
fn hash_bound_names(lines: &[&str], test_start: usize) -> Vec<String> {
    const STOP: [&str; 10] = [
        "let",
        "mut",
        "pub",
        "static",
        "const",
        "ref",
        "std",
        "collections",
        "use",
        "crate",
    ];
    let mut names = Vec::new();
    for line in lines.iter().take(test_start) {
        let code = match comment_start(line) {
            Some(i) => &line[..i],
            None => line,
        };
        let code = &strip_strings(code)[..];
        for ty in ["HashMap", "HashSet"] {
            for at in ident_occurrences(code, ty) {
                let name = tokens(&code[..at])
                    .into_iter()
                    .rev()
                    .find(|t| !STOP.contains(t) && !t.chars().next().unwrap().is_ascii_digit());
                if let Some(n) = name {
                    if !names.iter().any(|x| x == n) {
                        names.push(n.to_string());
                    }
                }
            }
        }
    }
    names
}

/// Second-argument (stream id) expressions of every `DetRng::split(..)`
/// call on one stripped line, whitespace-normalized. A call whose closing
/// paren spills onto a later line contributes the rest of the line — the
/// scanner is line-oriented by design.
fn split_stream_args(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find("DetRng::split") {
        let after = from + p + "DetRng::split".len();
        from = after;
        let Some(open_rel) = code[after..].find('(') else {
            continue;
        };
        let args_start = after + open_rel + 1;
        let mut depth = 1i32;
        let mut comma = None;
        let mut end = code.len();
        for (i, c) in code[args_start..].char_indices() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = args_start + i;
                        break;
                    }
                }
                ',' if depth == 1 && comma.is_none() => comma = Some(args_start + i),
                _ => {}
            }
        }
        if let Some(c) = comma {
            let expr: String = code[c + 1..end].split_whitespace().collect();
            if !expr.is_empty() {
                out.push(expr);
            }
        }
    }
    out
}

/// One lexically parsed `fn` item: its name and the 0-based inclusive line
/// range of its body (from the opening brace to the matching close).
struct FnItem {
    name: String,
    body: (usize, usize),
}

/// Lexical `fn` items of a stripped source. Brace counting over the
/// comment- and string-stripped text; nested items (closures, inner fns)
/// stay inside their parent's range, which is what the reachability walk
/// wants.
fn parse_fns(code_lines: &[String]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut depth = 0i32;
    let mut pending: Option<String> = None;
    let mut open: Vec<(String, i32, usize)> = Vec::new();
    for (idx, line) in code_lines.iter().enumerate() {
        let toks = tokens(line);
        for w in toks.windows(2) {
            if w[0] == "fn" {
                pending = Some(w[1].to_string());
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending.take() {
                        open.push((name, depth, idx));
                    }
                }
                '}' => {
                    if let Some((_, d, _)) = open.last() {
                        if *d == depth {
                            let (name, _, start) = open.pop().expect("non-empty open stack");
                            fns.push(FnItem {
                                name,
                                body: (start, idx),
                            });
                        }
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    fns
}

/// Identifiers immediately followed by `(` on one stripped line — the
/// call sites the `barrier-phase` audit walks.
fn called_idents(code: &str) -> Vec<String> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident_char(b[i] as char) {
            let s = i;
            while i < b.len() && is_ident_char(b[i] as char) {
                i += 1;
            }
            if i < b.len()
                && b[i] == b'('
                && !code[s..i]
                    .chars()
                    .next()
                    .expect("non-empty")
                    .is_ascii_digit()
            {
                out.push(code[s..i].to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Inclusive 0-based line spans of every `thread::scope(..)` argument list
/// — the lexical extent of the parallel shard-step phase.
fn thread_scope_spans(code_lines: &[String]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    // 0 = outside; -1 = saw `thread::scope`, waiting for `(`; >0 = depth.
    let mut depth = 0i32;
    let mut start = 0usize;
    for (idx, line) in code_lines.iter().enumerate() {
        let mut offset = 0;
        if depth == 0 {
            match line.find("thread::scope") {
                Some(p) => {
                    offset = p + "thread::scope".len();
                    start = idx;
                    depth = -1;
                }
                None => continue,
            }
        }
        for c in line[offset..].chars() {
            match c {
                '(' => depth = if depth == -1 { 1 } else { depth + 1 },
                ')' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        spans.push((start, idx));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    spans
}

/// The `barrier-phase` callgraph-lite audit: line indices (0-based) and
/// offending mutator names for every [`BARRIER_ONLY_MUTATORS`] call
/// reachable from the parallel shard-step phase. The phase is the union of
/// every `thread::scope` argument span and the bodies of locally defined
/// functions transitively reachable from calls in those spans (or named in
/// [`SHARD_STEP_ROOTS`]). Calls into other files go dark — the lexical
/// soundness caveat DESIGN.md §9 documents.
fn barrier_phase_audit(code_lines: &[String]) -> Vec<(usize, String)> {
    let fns = parse_fns(code_lines);
    let spans = thread_scope_spans(code_lines);

    let mut frontier: Vec<String> = SHARD_STEP_ROOTS.iter().map(|s| s.to_string()).collect();
    let mut parallel_lines: Vec<(usize, usize)> = spans.clone();
    for &(a, b) in &spans {
        for line in &code_lines[a..=b.min(code_lines.len() - 1)] {
            for id in called_idents(line) {
                if !matches!(id.as_str(), "scope" | "spawn") && !frontier.contains(&id) {
                    frontier.push(id);
                }
            }
        }
    }
    // Transitive closure over locally defined functions.
    let mut i = 0;
    while i < frontier.len() {
        let name = frontier[i].clone();
        for f in fns.iter().filter(|f| f.name == name) {
            parallel_lines.push(f.body);
            for line in &code_lines[f.body.0..=f.body.1.min(code_lines.len() - 1)] {
                for id in called_idents(line) {
                    if !frontier.contains(&id) {
                        frontier.push(id);
                    }
                }
            }
        }
        i += 1;
    }

    let mut out = Vec::new();
    for &(a, b) in &parallel_lines {
        for (idx, line) in code_lines
            .iter()
            .enumerate()
            .take(b.min(code_lines.len() - 1) + 1)
            .skip(a)
        {
            for id in called_idents(line) {
                if BARRIER_ONLY_MUTATORS.contains(&id.as_str())
                    && !out.iter().any(|(l, n)| *l == idx && *n == id)
                {
                    out.push((idx, id));
                }
            }
        }
    }
    out.sort();
    out
}

/// The module a `#[cfg(test)]` attribute on line `i` applies to, when the
/// attribute is directly followed (on its own line or the next) by
/// `mod <name> {` (an inline module, `true`) or `mod <name>;` (a module in a
/// file of its own, `false`). Any other `#[cfg(test)]` item, such as a
/// test-only helper fn, yields `None`.
fn cfg_test_mod<'a>(lines: &[&'a str], i: usize) -> Option<(&'a str, bool)> {
    let rest = lines[i].trim_start().strip_prefix("#[cfg(test)]")?.trim();
    let item = if rest.is_empty() {
        lines.get(i + 1)?.trim()
    } else {
        rest
    };
    let decl = item.strip_prefix("mod ")?;
    if let Some(name) = decl.strip_suffix('{') {
        return Some((name.trim(), true));
    }
    Some((decl.strip_suffix(';')?.trim(), false))
}

/// Lints one source file. `crate_name` decides whether the determinism
/// rules apply; `rel_path` decides the `PageFlags` encapsulation exemption.
/// Code from the first `#[cfg(test)]` attribute on an inline `mod <name> {`
/// to the end of the file is skipped entirely — tests may freely use wall
/// clocks, hash iteration, and fixture casts. A `#[cfg(test)]` helper fn is
/// linted like the production code around it.
pub fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let lines: Vec<&str> = source.lines().collect();
    let barrier_phase = RESTRICTED_FILES.contains(&rel_path);
    let restricted = RESTRICTED_CRATES.contains(&crate_name) || barrier_phase;
    let is_page_rs = rel_path.ends_with("tiered-mem/src/page.rs");
    let test_start = (0..lines.len())
        .find(|&i| matches!(cfg_test_mod(&lines, i), Some((_, true))))
        .unwrap_or(lines.len());

    // Waivers by line index; a waiver covers its own line and the next.
    let mut waivers: Vec<(usize, String)> = Vec::new();
    let mut raw = Vec::new();

    for (idx, line) in lines.iter().enumerate().take(test_start) {
        let (code, comment) = match comment_start(line) {
            Some(i) => (&line[..i], &line[i..]),
            None => (*line, ""),
        };
        let code = &strip_strings(code)[..];
        match parse_waiver(comment) {
            Some(WaiverParse::Ok(rule)) => waivers.push((idx, rule)),
            Some(WaiverParse::Malformed) => raw.push(Finding {
                rule: "bad-waiver",
                file: rel_path.to_string(),
                line: idx + 1,
                snippet: line.trim().to_string(),
                waived: Waived::No,
            }),
            None => {}
        }
        let mut hit = |rule: &'static str| {
            raw.push(Finding {
                rule,
                file: rel_path.to_string(),
                line: idx + 1,
                snippet: line.trim().to_string(),
                waived: Waived::No,
            })
        };

        // wall-clock: any nondeterministic time/randomness source.
        if restricted
            && ["Instant::now", "SystemTime", "thread_rng"]
                .iter()
                .any(|p| code.contains(p))
        {
            hit("wall-clock");
        }

        // shared-state: interior mutability or synchronization primitives in
        // shard-visible deterministic code. Any of these inside shard-step
        // code can carry cross-thread nondeterminism (lock-acquisition
        // order, atomic interleavings, aliased mutation), so the rule bans
        // them wholesale; legitimate uses go through the waiver table.
        if restricted {
            let toks = tokens(code);
            let shared = toks.iter().any(|t| {
                matches!(
                    *t,
                    "RefCell"
                        | "Cell"
                        | "UnsafeCell"
                        | "OnceCell"
                        | "OnceLock"
                        | "LazyLock"
                        | "Mutex"
                        | "RwLock"
                        | "Condvar"
                        | "thread_local"
                        | "unsafe"
                ) || t.starts_with("Atomic")
            }) || code.contains("static mut");
            if shared {
                hit("shared-state");
            }
        }

        // rng-stream (mutable-RNG half): a `&mut DetRng` flowing through a
        // barrier-phase module's API means one RNG stream is being consumed
        // from code that runs in (or feeds) the barrier protocol — streams
        // must stay pinned to exactly one shard context.
        if barrier_phase && code.contains("&mut DetRng") {
            hit("rng-stream");
        }

        // timestamp-cast: `x_ms as u32`-style modular narrowing.
        let has_cast = [
            " as u8", " as u16", " as u32", " as u64", " as i32", " as i64",
        ]
        .iter()
        .any(|c| {
            let mut from = 0;
            while let Some(p) = code[from..].find(c) {
                let end = from + p + c.len();
                // Reject prefixes of longer tokens (` as u8` in ` as u8x`).
                if code[end..]
                    .chars()
                    .next()
                    .map(|ch| !ch.is_ascii_alphanumeric())
                    .unwrap_or(true)
                {
                    return true;
                }
                from = end;
            }
            false
        });
        let exempted = [
            "wrapping_",
            "checked_",
            "saturating_",
            "try_into",
            "try_from",
        ]
        .iter()
        .any(|e| code.contains(e));
        if has_cast && !exempted && tokens(code).iter().any(|t| is_timestampish(t)) {
            hit("timestamp-cast");
        }

        // unit-mix: time-suffixed and slot-suffixed identifiers in one
        // arithmetic expression, with no conversion helper in sight.
        {
            let toks = tokens(code);
            let timeish = toks
                .iter()
                .any(|t| t.ends_with("_ms") || t.ends_with("_us") || t.ends_with("_ns"));
            let bucketish = toks.iter().any(|t| is_bucketish(t));
            let converter = toks
                .iter()
                .any(|t| t.contains("_of") || t.starts_with("to_") || t.starts_with("from_"));
            let arith = code
                .replace("->", "")
                .chars()
                .any(|c| matches!(c, '+' | '-' | '*' | '/' | '%'));
            if timeish && bucketish && arith && !converter {
                hit("unit-mix");
            }
        }

        // flags-encapsulation: raw flag-word arithmetic outside page.rs.
        if !is_page_rs
            && (code.contains("flags.0")
                || ident_occurrences(code, "PageFlags")
                    .iter()
                    .any(|&at| code[at + "PageFlags".len()..].starts_with('(')))
        {
            hit("flags-encapsulation");
        }
    }

    // hash-iter needs the whole-file name set first.
    if restricted {
        let names = hash_bound_names(&lines, test_start);
        for (idx, line) in lines.iter().enumerate().take(test_start) {
            let code = match comment_start(line) {
                Some(i) => &line[..i],
                None => line,
            };
            let code = &strip_strings(code)[..];
            let iterated = names.iter().any(|name| {
                ident_occurrences(code, name).iter().any(|&at| {
                    let after = &code[at + name.len()..];
                    if HASH_ITER_METHODS.iter().any(|m| after.starts_with(m)) {
                        return true;
                    }
                    // for-loop iteration: `for x in map` / `in &map` /
                    // `in &mut map`, allowing a `self.`/path prefix.
                    let bytes = code.as_bytes();
                    let mut s = at;
                    while s > 0 && (is_ident_char(bytes[s - 1] as char) || bytes[s - 1] == b'.') {
                        s -= 1;
                    }
                    let head = &code[..s];
                    ["in ", "in &", "in &mut "]
                        .iter()
                        .any(|p| head.ends_with(p))
                })
            });
            if iterated {
                raw.push(Finding {
                    rule: "hash-iter",
                    file: rel_path.to_string(),
                    line: idx + 1,
                    snippet: line.trim().to_string(),
                    waived: Waived::No,
                });
            }
        }
    }

    // rng-stream (duplicate-consumption half) and barrier-phase both need
    // whole-file context over the stripped production code.
    if restricted || barrier_phase {
        let stripped: Vec<String> = lines
            .iter()
            .take(test_start)
            .map(|line| {
                let code = match comment_start(line) {
                    Some(i) => &line[..i],
                    None => line,
                };
                strip_strings(code)
            })
            .collect();

        // rng-stream: a `DetRng::split` stream id consumed by two distinct
        // call sites in one file means two contexts draw from (what is meant
        // to be) one shard's private stream.
        if restricted {
            let mut streams: Vec<(String, usize)> = Vec::new();
            for (idx, code) in stripped.iter().enumerate() {
                for expr in split_stream_args(code) {
                    if let Some((_, first)) = streams.iter().find(|(e, _)| *e == expr) {
                        raw.push(Finding {
                            rule: "rng-stream",
                            file: rel_path.to_string(),
                            line: idx + 1,
                            snippet: format!(
                                "{}  (stream `{expr}` already split at line {})",
                                lines[idx].trim(),
                                first + 1
                            ),
                            waived: Waived::No,
                        });
                    } else {
                        streams.push((expr, idx));
                    }
                }
            }
        }

        // barrier-phase: cross-shard mutators reachable from the parallel
        // shard-step phase.
        if barrier_phase {
            for (idx, mutator) in barrier_phase_audit(&stripped) {
                raw.push(Finding {
                    rule: "barrier-phase",
                    file: rel_path.to_string(),
                    line: idx + 1,
                    snippet: format!(
                        "{}  (cross-shard mutator `{mutator}` reachable from the shard-step phase)",
                        lines[idx].trim()
                    ),
                    waived: Waived::No,
                });
            }
        }
    }

    // Resolve inline waivers: a waiver covers its own line, the rest of
    // its comment block, and the first code line after it (so a multi-line
    // justification above the flagged statement works).
    for f in &mut raw {
        let idx = f.line - 1;
        let covered = |w: usize| {
            if w == idx {
                return true;
            }
            if w > idx {
                return false;
            }
            // Every line strictly between the waiver and the finding must
            // be comment-only for the waiver to reach it.
            (w + 1..idx).all(|j| lines[j].trim_start().starts_with("//"))
        };
        if waivers
            .iter()
            .any(|(w, rule)| covered(*w) && rule == f.rule)
        {
            f.waived = Waived::Inline;
        }
    }
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Workspace-relative module paths (no `.rs`) of the files `source`
/// declares as `#[cfg(test)] mod <name>;`. `a/lib.rs`, `a/main.rs` and
/// `a/mod.rs` own `a/<name>`; any other `a/foo.rs` owns `a/foo/<name>`.
fn test_module_paths(rel_path: &str, source: &str) -> Vec<String> {
    let stem = rel_path.strip_suffix(".rs").unwrap_or(rel_path);
    let owner = match stem.rsplit_once('/') {
        Some((dir, "lib" | "main" | "mod")) => dir,
        _ => stem,
    };
    let lines: Vec<&str> = source.lines().collect();
    (0..lines.len())
        .filter_map(|i| match cfg_test_mod(&lines, i) {
            Some((name, false)) => Some(format!("{owner}/{name}")),
            _ => None,
        })
        .collect()
}

/// Lints `(crate, workspace-relative path, source)` files. A file its
/// parent declares as `#[cfg(test)] mod <name>;` is test code as a whole,
/// as is everything under that module's directory, and is skipped.
fn lint_files(files: &[(String, String, String)]) -> Vec<Finding> {
    let test_modules: Vec<String> = files
        .iter()
        .flat_map(|(_, rel, source)| test_module_paths(rel, source))
        .collect();
    let is_test_file = |rel: &str| {
        test_modules.iter().any(|m| {
            rel.strip_prefix(m.as_str())
                .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
        })
    };
    let mut findings: Vec<Finding> = files
        .iter()
        .filter(|(_, rel, _)| !is_test_file(rel))
        .flat_map(|(krate, rel, source)| lint_source(krate, rel, source))
        .collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Lints every workspace crate's `src/` tree plus the root facade `src/`.
///
/// Every crate under `crates/` is scanned; `harness` is unrestricted for
/// wall-clock use, and its bench module carries explicit waivers anyway.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut targets: Vec<(String, std::path::PathBuf)> = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir.file_name().unwrap().to_string_lossy().to_string();
        targets.push((name, dir.join("src")));
    }
    targets.push(("chrono-repro".to_string(), root.join("src")));

    let mut files = Vec::new();
    for (crate_name, src_dir) in targets {
        let mut paths = Vec::new();
        rs_files(&src_dir, &mut paths);
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((crate_name.clone(), rel, fs::read_to_string(&path)?));
        }
    }
    Ok(LintReport {
        findings: lint_files(&files),
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwaived(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| f.waived == Waived::No).collect()
    }

    #[test]
    fn wall_clock_flagged_in_restricted_crate_only() {
        let src = "fn t() { let x = Instant::now(); }\n";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "wall-clock");
        assert_eq!(hits[0].line, 1);
        // The harness may time real wall-clock runs; unrestricted.
        let hits = lint_source("harness", "crates/harness/src/x.rs", src);
        assert!(hits.is_empty());
    }

    #[test]
    fn hash_iteration_flagged_with_binding_tracking() {
        let src = "\
use std::collections::HashMap;
struct S { rounds: HashMap<u64, u32> }
impl S {
    fn bad(&self) -> u64 { self.rounds.keys().sum() }
    fn also_bad(&self) { for k in &self.rounds { let _ = k; } }
    fn fine(&self) -> usize { self.rounds.len() }
}
";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", src);
        let rules: Vec<_> = hits.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, vec![("hash-iter", 4), ("hash-iter", 5)]);
    }

    #[test]
    fn hash_iteration_negative_on_btreemap() {
        let src = "\
use std::collections::BTreeMap;
struct S { rounds: BTreeMap<u64, u32> }
impl S { fn fine(&self) -> u64 { self.rounds.keys().sum() } }
";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn timestamp_cast_positive_waived_negative() {
        // Positive: bare modular narrowing of a millisecond quantity.
        let bad = "fn f(scan_ms: u64) -> u32 { scan_ms as u32 }\n";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "timestamp-cast");
        assert_eq!(hits[0].waived, Waived::No);

        // Waived: same code with an inline justification.
        let waived = "\
// lint:allow(timestamp-cast) intentional modular stamp, consumers wrap
fn f(scan_ms: u64) -> u32 { scan_ms as u32 }
";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", waived);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].waived, Waived::Inline);

        // Negative: wrapping arithmetic is the blessed idiom.
        let good = "fn f(scan_ms: u32, t0: u32) -> u32 { scan_ms.wrapping_sub(t0) }\n";
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", good).is_empty());
        // Negative: non-timestamp identifiers cast freely.
        let good = "fn f(frames: u64) -> u32 { frames as u32 }\n";
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", good).is_empty());
    }

    #[test]
    fn unit_mix_flags_time_vs_slot_arithmetic() {
        let bad = "let x = interval_ms + hot_bucket;\n";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unit-mix");
        // A conversion helper on the line is the sanctioned pattern.
        let good = "let x = bucket_of(interval_ms) + hot_bucket;\n";
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", good).is_empty());
        // No arithmetic: a struct literal mentioning both is fine.
        let good = "S { interval_ms, hot_bucket }\n";
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", good).is_empty());
    }

    #[test]
    fn flags_encapsulation_outside_page_rs() {
        let bad = "let raw = e.flags.0 & 0x3;\nlet f = PageFlags(0);\n";
        let hits = lint_source("tiered-mem", "crates/tiered-mem/src/system.rs", bad);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.rule == "flags-encapsulation"));
        // page.rs itself owns the representation.
        assert!(lint_source("tiered-mem", "crates/tiered-mem/src/page.rs", bad).is_empty());
        // Named accessors are the point of the rule.
        let good = "let f = PageFlags::from_bits(0); let b = f.bits();\n";
        assert!(lint_source("tiered-mem", "crates/tiered-mem/src/system.rs", good).is_empty());
    }

    #[test]
    fn bad_waiver_is_reported() {
        let src = "// lint:allow(timestamp-cast)\nfn f(scan_ms: u64) -> u32 { scan_ms as u32 }\n";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", src);
        // Reason-less waiver does not silence, and is itself a finding.
        assert!(hits.iter().any(|f| f.rule == "bad-waiver"));
        assert!(hits
            .iter()
            .any(|f| f.rule == "timestamp-cast" && f.waived == Waived::No));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); let x: HashMap<u8,u8> = HashMap::new(); for _ in &x {} }
}
";
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_helpers_do_not_exempt_the_code_below_them() {
        let src = "\
#[cfg(test)]
fn helper() -> u8 { 0 }
fn prod() { let _probe = Instant::now(); }
";
        let hits = lint_source("chrono-core", "crates/chrono-core/src/x.rs", src);
        let rules: Vec<&str> = hits.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["wall-clock"]);
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn files_declared_cfg_test_are_exempt() {
        let file = |rel: &str, src: &str| ("tiered-mem".into(), rel.into(), src.into());
        let clock = "fn t() { let _ = Instant::now(); }\n";
        let files = [
            file(
                "crates/tiered-mem/src/lib.rs",
                "#[cfg(test)]\nmod fixtures;\n",
            ),
            file("crates/tiered-mem/src/fixtures.rs", clock),
            file(
                "crates/tiered-mem/src/system.rs",
                "mod access;\n#[cfg(test)] mod tests;\n",
            ),
            file("crates/tiered-mem/src/system/tests.rs", clock),
            file("crates/tiered-mem/src/system/tests/util.rs", clock),
            file("crates/tiered-mem/src/system/access.rs", clock),
        ];
        let hits = lint_files(&files);
        let files: Vec<&str> = hits.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, ["crates/tiered-mem/src/system/access.rs"]);
    }

    #[test]
    fn shared_state_flagged_in_restricted_code_only() {
        for bad in [
            "static mut COUNTER: u32 = 0;\n",
            "let m = Mutex::new(0);\n",
            "let c = RefCell::new(0);\n",
            "use std::sync::atomic::AtomicU64;\n",
            "unsafe { *p = 1; }\n",
        ] {
            let hits = lint_source("tiering-policies", "crates/tiering-policies/src/x.rs", bad);
            assert_eq!(hits.len(), 1, "{bad:?} -> {hits:?}");
            assert_eq!(hits[0].rule, "shared-state");
            // Unrestricted crates (e.g. the analysis tooling itself) are free.
            assert!(
                lint_source("tiering-analysis", "crates/tiering-analysis/src/x.rs", bad).is_empty()
            );
        }
        // Restriction also applies by file, not just by crate.
        let hits = lint_source(
            "harness",
            "crates/harness/src/tenants.rs",
            "let m = Mutex::new(0);\n",
        );
        assert!(hits.iter().any(|f| f.rule == "shared-state"));
        // Waivable like any other rule.
        let waived = "\
// lint:allow(shared-state) startup-only registration, never in shard-step
static mut COUNTER: u32 = 0;
";
        let hits = lint_source(
            "tiering-policies",
            "crates/tiering-policies/src/x.rs",
            waived,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].waived, Waived::Inline);
    }

    #[test]
    fn rng_stream_flags_duplicate_split_consumption() {
        let bad = "\
let a = DetRng::split(seed, 7);
let b = DetRng::split(seed, 7);
";
        let hits = lint_source("tiering-policies", "crates/tiering-policies/src/x.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "rng-stream");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].snippet.contains("already split at line 1"));
        // Distinct stream ids: each stream has exactly one consumer.
        let good = "\
let a = DetRng::split(seed, 7);
let b = DetRng::split(seed, 8);
";
        assert!(
            lint_source("tiering-policies", "crates/tiering-policies/src/x.rs", good).is_empty()
        );
        // Whitespace-insensitive stream matching.
        let bad = "let a = DetRng::split(s, id + 1);\nlet b = DetRng::split(s, id+1);\n";
        let hits = lint_source("tiering-policies", "crates/tiering-policies/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn rng_stream_flags_mut_detrng_in_barrier_phase_files() {
        let src = "fn feed(rng: &mut DetRng) {}\n";
        let hits = lint_source(
            "tiering-policies",
            "crates/tiering-policies/src/shard.rs",
            src,
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "rng-stream");
        // Ordinary restricted code may pass RNGs by &mut freely.
        assert!(lint_source("chrono-core", "crates/chrono-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn barrier_phase_flags_mutators_reachable_from_shard_step() {
        let src = "\
fn step_to(&mut self) { self.tick(); self.heal(); }
fn tick(&mut self) { let g = admission_grants(4, &claims); }
fn barrier(&mut self) { ctl.apply(1, 2); }
fn heal(&mut self) { let p = plan.resplit_excluding(TierId(1), &w); }
";
        let hits = lint_source(
            "tiering-policies",
            "crates/tiering-policies/src/shard.rs",
            src,
        );
        // `admission_grants` and `resplit_excluding` are transitively
        // reachable from the step root; `apply` in the barrier fn is not
        // reachable and stays legal.
        let lines: Vec<usize> = hits.iter().map(|h| h.line).collect();
        assert_eq!(lines, [2, 4], "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "barrier-phase"));
        assert!(hits[0].snippet.contains("admission_grants"));
        assert!(hits[1].snippet.contains("resplit_excluding"));
    }

    #[test]
    fn barrier_phase_walks_thread_scope_bodies() {
        let src = "\
fn run(&mut self) {
    thread::scope(|s| {
        s.spawn(|| worker());
    });
}
fn worker() { let p = PartitionPlan::split_weighted_tiers(&[64, 128], &w); }
";
        let hits = lint_source(
            "tiering-policies",
            "crates/tiering-policies/src/shard.rs",
            src,
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "barrier-phase");
        assert_eq!(hits[0].line, 6);
        // The same mutator outside any parallel span is legal.
        let good = "fn barrier(&mut self) { let p = split_weighted_tiers(&[64, 128], &w); }\n";
        assert!(lint_source(
            "tiering-policies",
            "crates/tiering-policies/src/shard.rs",
            good
        )
        .is_empty());
    }

    #[test]
    fn whole_workspace_is_clean() {
        // The CI gate, as a unit test: zero unwaived findings.
        let report = lint_workspace(&crate::workspace_root()).unwrap();
        let bad: Vec<String> = unwaived(&report.findings)
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert!(
            bad.is_empty(),
            "unwaived lint findings:\n{}",
            bad.join("\n")
        );
        assert!(
            report.files_scanned > 40,
            "scanned {}",
            report.files_scanned
        );
    }
}
