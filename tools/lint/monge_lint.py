#!/usr/bin/env python3
"""monge-lint: project-specific invariant checks generic tools cannot express.

Five rules, each enforcing a convention the codebase's correctness leans on:

  L1  throw-taxonomy      Everything thrown in src/ is part of the
                          monge::Error taxonomy (util/error.h). The only
                          exempt files are util/check.h and util/error.h
                          themselves (MONGE_CHECK's std::logic_error is the
                          documented carve-out for programming errors).
  L2  explicit-memory-order
                          Every std::atomic load/store/RMW names an explicit
                          std::memory_order — no silent seq_cst. Implicit
                          operator forms (x++, x += k) on declared atomics
                          are flagged too.
  L3  hot-no-alloc        Functions annotated `// monge-lint: hot` must not
                          contain allocating constructs (new, make_unique/
                          make_shared, std::vector/std::string construction,
                          push_back/resize/reserve/..., std::to_string,
                          stringstreams). This is the static half of the
                          engine's zero-steady-state-allocation claim: hot
                          paths carve from the arena instead.
  L4  engine-entry-maxn   Every SeaweedEngine member defined in engine.cpp
                          validates kSeaweedEngineMaxN — directly via the
                          named checker helpers or by delegating to another
                          checked member — unless it is on a short exempt
                          list of members that take no product input. The
                          entry list is worked out from the definitions, so
                          a new or renamed member is checked without a
                          config change.
  L5  no-thread-local     No thread-local storage (`thread_local`,
                          `_Thread_local`, `__thread`) in the linted set,
                          which is src/ by default. State kept per thread
                          has no owner: it outlives every request, grows
                          without bound and is shared by whatever runs on
                          that thread. Library state belongs to an object
                          the caller owns, such as a Solver, an engine or
                          a cluster round.

Suppression: append `// monge-lint: ignore(LN)` to the offending line. Each
suppression should carry a rationale comment, mirroring the .clang-tidy
policy.

Driving: by default the file list comes from compile_commands.json (every TU
under src/) unioned with all headers under src/; pass explicit paths to lint
just those. Exit status is 1 iff findings were emitted.

Self-tests: `--self-test` runs every rule against the fixture snippets in
tools/lint/fixtures/ and verifies the exact (line, rule) finding set each
fixture declares via `// monge-lint-expect: LN` markers — positive fixtures
declare none and must stay clean, negative fixtures prove each rule actually
fires.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Project configuration (overridable on the command line for the self-tests).
# ---------------------------------------------------------------------------

# L1: the taxonomy types of util/error.h, plus bare `throw;` rethrows.
ALLOWED_THROW_TYPES = {
    "Error",
    "InvalidRequestError",
    "CodecError",
    "FaultError",
    "SpaceLimitError",
    "OverloadedError",
}
# Files allowed to throw outside the taxonomy: the taxonomy itself and the
# MONGE_CHECK machinery (std::logic_error for programming errors is the
# documented carve-out — see util/error.h).
L1_EXEMPT_SUFFIXES = ("util/check.h", "util/error.h")

# L2: member calls that take an optional memory-order argument.
ATOMIC_MEMBER_CALLS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
    "test_and_set",
    "clear",
    "wait",
)

# L3: allocating constructs banned inside `// monge-lint: hot` functions.
HOT_BANNED_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\bstd::vector\s*<"), "std::vector construction"),
    (re.compile(r"\bstd::string\b"), "std::string construction"),
    (re.compile(r"\bstd::to_string\b"), "std::to_string"),
    (re.compile(r"\bstd::[io]?stringstream\b"), "stringstream"),
    (re.compile(r"\bstd::ostringstream\b"), "ostringstream"),
    (re.compile(r"\.\s*push_back\s*\("), "push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.\s*emplace\s*\("), "emplace"),
    (re.compile(r"\.\s*resize\s*\("), "resize"),
    (re.compile(r"\.\s*reserve\s*\("), "reserve"),
    (re.compile(r"\.\s*assign\s*\("), "assign"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    (re.compile(r"\bcalloc\s*\("), "calloc"),
]

# L4 defaults: every SeaweedEngine member defined in src/monge/engine.cpp is
# an entry point, except the exempt ones, which take no product input: the
# constructor (named like the class), the counter snapshot, the budget
# query and the private buffer accessor. A member passes if its body
# references a checker, or calls another checked member (delegation closure
# computed transitively).
L4_FILE_SUFFIX = "monge/engine.cpp"
L4_CLASS = "SeaweedEngine"
L4_EXEMPT = [L4_CLASS, "representation_stats", "arena_bytes_for", "arena_span"]
L4_CHECKERS = ["check_size_limit", "check_subunit_shapes", "kSeaweedEngineMaxN"]

HOT_ANNOTATION = "// monge-lint: hot"
IGNORE_RE = re.compile(r"//\s*monge-lint:\s*ignore\((L[1-5])\)")
EXPECT_RE = re.compile(r"//\s*monge-lint-expect:\s*(L[1-5])")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Lexing: strip comments and string/char literals while preserving offsets,
# so the rule regexes never fire inside text. Annotations and suppressions
# are collected from the raw source first.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(src: str) -> str:
    """Returns src with comments and string/char literal *contents* replaced
    by spaces (newlines kept), so byte offsets and line numbers survive."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == "R" and src[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]*)\(', src[i:])
            if not m:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = src.find(close, i + m.end())
            j = n if j < 0 else j + len(close)
            blank(i + 1, j)  # keep the R so identifiers don't merge
            i = j
        elif c == '"' or c == "'":
            # Skip char/string literal with escapes. A lone apostrophe used
            # as a digit separator (1'000'000) never reaches here because it
            # sits between digits — handle that first.
            if c == "'" and i > 0 and src[i - 1].isdigit() and nxt.isdigit():
                i += 1
                continue
            j = i + 1
            while j < n and src[j] != c:
                j = j + 2 if src[j] == "\\" else j + 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(src: str, offset: int) -> int:
    return src.count("\n", 0, offset) + 1


def line_start(src: str, offset: int) -> int:
    return src.rfind("\n", 0, offset) + 1


def match_brace(src: str, open_idx: int) -> int:
    """Index one past the brace matching src[open_idx] == '{' (on stripped
    source, so literals cannot confuse the count)."""
    depth = 0
    for i in range(open_idx, len(src)):
        if src[i] == "{":
            depth += 1
        elif src[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(src)


class SourceFile:
    def __init__(self, path: Path, text: str | None = None):
        self.path = path
        self.raw = text if text is not None else path.read_text()
        self.stripped = strip_comments_and_strings(self.raw)
        self.suppressed: dict[int, set[str]] = {}
        for ln, line in enumerate(self.raw.splitlines(), start=1):
            for m in IGNORE_RE.finditer(line):
                self.suppressed.setdefault(ln, set()).add(m.group(1))

    def is_suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressed.get(line, set())


# ---------------------------------------------------------------------------
# L1: throw taxonomy.
# ---------------------------------------------------------------------------

# A bare `throw;` is a rethrow; anything else (identifier or not — `throw 42`
# is just as much a taxonomy violation) captures what follows for the message.
THROW_RE = re.compile(r"\bthrow\b\s*([A-Za-z_:][\w:]*|[^;\s)])?")


def check_l1(sf: SourceFile) -> list[Finding]:
    if str(sf.path).replace("\\", "/").endswith(L1_EXEMPT_SUFFIXES):
        return []
    findings = []
    for m in THROW_RE.finditer(sf.stripped):
        thrown = m.group(1)
        if thrown is None:
            # `throw;` rethrow — fine (the original came through a checked
            # site already).
            continue
        base = thrown.split("::")[-1]
        if base in ALLOWED_THROW_TYPES:
            continue
        ln = line_of(sf.stripped, m.start())
        if sf.is_suppressed(ln, "L1"):
            continue
        findings.append(
            Finding(
                sf.path,
                ln,
                "L1",
                f"throw of `{thrown}` is outside the monge::Error taxonomy "
                "(util/error.h); throw a taxonomy type or route the check "
                "through MONGE_CHECK",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# L2: explicit memory orders.
# ---------------------------------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(" + "|".join(ATOMIC_MEMBER_CALLS) + r")\s*\("
)
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic(?:_flag|_bool|_int\w*)?\s*(?:<[^;{}]*?>)?\s+(\w+)")
ATOMIC_IMPLICIT_OPS = ("++", "--", "+=", "-=", "|=", "&=", "^=")


def balanced_args(src: str, open_paren: int) -> str:
    depth = 0
    for i in range(open_paren, len(src)):
        if src[i] == "(":
            depth += 1
        elif src[i] == ")":
            depth -= 1
            if depth == 0:
                return src[open_paren + 1 : i]
    return src[open_paren + 1 :]


def check_l2(sf: SourceFile) -> list[Finding]:
    findings = []
    src = sf.stripped
    # Member-call form. Only fires when the receiver expression mentions an
    # identifier that was declared std::atomic in this file, OR when the call
    # name is unambiguous (fetch_*/compare_exchange_* — nothing else in C++
    # spells those).
    atomics = {m.group(1) for m in ATOMIC_DECL_RE.finditer(src)}
    unambiguous = {
        "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong", "test_and_set",
    }
    for m in ATOMIC_CALL_RE.finditer(src):
        name = m.group(1)
        args = balanced_args(src, m.end() - 1)
        if "memory_order" in args:
            continue
        # Receiver: walk back over the expression before the dot.
        recv = src[line_start(src, m.start()) : m.start()]
        recv_id = re.search(r"(\w+)\s*$", recv)
        receiver_is_atomic = recv_id and recv_id.group(1) in atomics
        if name not in unambiguous and not receiver_is_atomic:
            continue  # e.g. SomeTable.load(...) on a non-atomic type
        if name in ("compare_exchange_weak", "compare_exchange_strong"):
            pass  # two-order form required; absence of memory_order flags it
        ln = line_of(src, m.start())
        if sf.is_suppressed(ln, "L2"):
            continue
        findings.append(
            Finding(
                sf.path,
                ln,
                "L2",
                f"`{name}` without an explicit std::memory_order "
                "(implicit seq_cst); name the order — seq_cst too, if "
                "that is really what the site needs",
            )
        )
    # Implicit operator form on declared atomics: x++, ++x, x += k, ...
    for name in atomics:
        for op in ATOMIC_IMPLICIT_OPS:
            pat = re.compile(
                r"(?:\b" + re.escape(name) + r"\s*" + re.escape(op) + r")|(?:"
                + re.escape(op) + r"\s*" + re.escape(name) + r"\b)"
            )
            for m in pat.finditer(src):
                ln = line_of(src, m.start())
                if sf.is_suppressed(ln, "L2"):
                    continue
                findings.append(
                    Finding(
                        sf.path,
                        ln,
                        "L2",
                        f"implicit seq_cst `{op}` on std::atomic `{name}`; "
                        "use fetch_add/fetch_sub/store with an explicit "
                        "std::memory_order",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# L3: no allocation in `// monge-lint: hot` functions.
# ---------------------------------------------------------------------------


def hot_regions(sf: SourceFile) -> list[tuple[int, int, str]]:
    """(body_start, body_end, function_name) for each hot annotation."""
    regions = []
    for m in re.finditer(re.escape(HOT_ANNOTATION), sf.raw):
        # The annotated function's body: first '{' after the annotation (the
        # annotation sits directly above the signature by contract).
        open_idx = sf.stripped.find("{", m.end())
        if open_idx < 0:
            continue
        end = match_brace(sf.stripped, open_idx)
        sig = " ".join(sf.stripped[m.end() : open_idx].split())
        name_m = re.search(r"([\w:~]+)\s*\(", sig)
        regions.append((open_idx, end, name_m.group(1) if name_m else "?"))
    return regions


def check_l3(sf: SourceFile) -> list[Finding]:
    findings = []
    for start, end, fn in hot_regions(sf):
        body = sf.stripped[start:end]
        for pat, what in HOT_BANNED_PATTERNS:
            for m in pat.finditer(body):
                ln = line_of(sf.stripped, start + m.start())
                if sf.is_suppressed(ln, "L3"):
                    continue
                findings.append(
                    Finding(
                        sf.path,
                        ln,
                        "L3",
                        f"allocating construct ({what}) inside hot function "
                        f"`{fn}`; hot paths must carve from the arena "
                        "(annotated `// monge-lint: hot`)",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# L4: engine entry points validate kSeaweedEngineMaxN.
# ---------------------------------------------------------------------------


def function_bodies(sf: SourceFile, cls: str) -> dict[str, str]:
    """Bodies of `cls::name(...) ... { ... }` definitions in this file."""
    bodies: dict[str, str] = {}
    src = sf.stripped
    for m in re.finditer(re.escape(cls) + r"::(~?\w+)\s*\(", src):
        name = m.group(1)
        # Find the body '{' that follows the parameter list (skipping over
        # member initializer lists and specifiers).
        args_end = m.end() - 1
        depth = 0
        i = args_end
        while i < len(src):
            if src[i] == "(":
                depth += 1
            elif src[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        open_idx = src.find("{", i)
        semi = src.find(";", i)
        if open_idx < 0 or (0 <= semi < open_idx):
            continue  # declaration, not a definition
        end = match_brace(src, open_idx)
        bodies[name] = src[open_idx:end]
    return bodies


def check_l4(
    sf: SourceFile,
    cls: str,
    exempt: list[str],
    checkers: list[str],
) -> list[Finding]:
    bodies = function_bodies(sf, cls)
    entries = [name for name in bodies if name not in exempt]
    checker_re = re.compile("|".join(r"\b" + re.escape(c) + r"\b" for c in checkers))

    # Pass 1: direct checks. Pass 2 (to fixpoint): delegation to a checked
    # member (e.g. multiply -> multiply_batch_into).
    checked = {name for name in entries if checker_re.search(bodies[name])}
    changed = True
    while changed:
        changed = False
        for name in entries:
            if name in checked:
                continue
            for other in checked:
                if re.search(r"\b" + re.escape(other) + r"\s*\(", bodies[name]):
                    checked.add(name)
                    changed = True
                    break

    findings = []
    for name in entries:
        if name in checked:
            continue
        # Anchor the finding at the definition.
        dm = re.search(re.escape(cls) + r"::" + re.escape(name) + r"\s*\(", sf.stripped)
        ln = line_of(sf.stripped, dm.start()) if dm else 1
        if sf.is_suppressed(ln, "L4"):
            continue
        findings.append(
            Finding(
                sf.path,
                ln,
                "L4",
                f"`{cls}::{name}` neither validates kSeaweedEngineMaxN (via "
                + "/".join(checkers)
                + ") nor delegates to a checked member, and is not on the "
                "L4 exempt list",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# L5: no thread-local storage.
# ---------------------------------------------------------------------------

THREAD_LOCAL_RE = re.compile(r"\b(thread_local|_Thread_local|__thread)\b")


def check_l5(sf: SourceFile) -> list[Finding]:
    findings = []
    for m in THREAD_LOCAL_RE.finditer(sf.stripped):
        ln = line_of(sf.stripped, m.start())
        if sf.is_suppressed(ln, "L5"):
            continue
        findings.append(
            Finding(
                sf.path,
                ln,
                "L5",
                f"`{m.group(1)}` storage has no owner; keep the state in an "
                "object the caller owns (a Solver, an engine, a cluster "
                "round) instead",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Driving.
# ---------------------------------------------------------------------------


def files_from_compile_commands(build_dir: Path, root: Path) -> list[Path]:
    ccj = build_dir / "compile_commands.json"
    files: set[Path] = set()
    if ccj.exists():
        for entry in json.loads(ccj.read_text()):
            p = Path(entry["file"])
            if not p.is_absolute():
                p = Path(entry["directory"]) / p
            p = p.resolve()
            if (root / "src") in p.parents or str(p).startswith(str(root / "src")):
                files.add(p)
    else:
        print(
            f"monge-lint: warning: {ccj} not found; falling back to a glob "
            "of src/ (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
            file=sys.stderr,
        )
        files.update((root / "src").rglob("*.cpp"))
    files.update((root / "src").rglob("*.h"))
    return sorted(files)


def lint_file(path: Path, args: argparse.Namespace) -> list[Finding]:
    sf = SourceFile(path)
    findings: list[Finding] = []
    findings += check_l1(sf)
    findings += check_l2(sf)
    findings += check_l3(sf)
    findings += check_l5(sf)
    if str(path).replace("\\", "/").endswith(L4_FILE_SUFFIX):
        findings += check_l4(sf, L4_CLASS, L4_EXEMPT, L4_CHECKERS)
    return findings


# ---------------------------------------------------------------------------
# Self-tests over tools/lint/fixtures/.
# ---------------------------------------------------------------------------


def fixture_expectations(path: Path) -> list[tuple[int, str]]:
    expects = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        for m in EXPECT_RE.finditer(line):
            expects.append((ln, m.group(1)))
    return sorted(expects)


def self_test(fixture_dir: Path) -> int:
    failures = 0
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(fixture_dir.glob("*.h"))
    if not fixtures:
        print(f"monge-lint: self-test: no fixtures in {fixture_dir}", file=sys.stderr)
        return 1
    rules_fired: set[str] = set()
    for fx in fixtures:
        sf = SourceFile(fx)
        findings: list[Finding] = []
        findings += check_l1(sf)
        findings += check_l2(sf)
        findings += check_l3(sf)
        findings += check_l5(sf)
        # Fixture L4 config: a fake `Engine` class with its own exempt list,
        # declared in the fixture itself via a config comment.
        cfg = re.search(
            r"monge-lint-l4:\s*class=(\w+)\s+exempt=([\w,]+)\s+checkers=([\w,]+)",
            sf.raw,
        )
        if cfg:
            findings += check_l4(
                sf,
                cfg.group(1),
                cfg.group(2).split(","),
                cfg.group(3).split(","),
            )
        got = sorted((f.line, f.rule) for f in findings)
        want = fixture_expectations(fx)
        rules_fired.update(r for _, r in got)
        if got != want:
            failures += 1
            print(f"monge-lint: self-test FAIL {fx.name}:")
            print(f"  expected: {want}")
            print(f"  got:      {got}")
            for f in findings:
                print(f"    {f}")
    # Every rule must demonstrably fire on at least one negative fixture.
    missing = {"L1", "L2", "L3", "L4", "L5"} - rules_fired
    if missing:
        failures += 1
        print(f"monge-lint: self-test FAIL: rules never fired: {sorted(missing)}")
    if failures == 0:
        print(f"monge-lint: self-test OK ({len(fixtures)} fixtures, all rules fired)")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, help="files to lint (default: src/ via compile_commands.json)")
    ap.add_argument("-p", "--build-dir", type=Path, default=Path("build"), help="build dir holding compile_commands.json")
    ap.add_argument("--root", type=Path, default=None, help="repo root (default: parent of this script's dir)")
    ap.add_argument("--self-test", action="store_true", help="run the fixture self-tests and exit")
    ap.add_argument("--list-hot", action="store_true", help="list annotated hot functions and exit")
    args = ap.parse_args()

    root = args.root or Path(__file__).resolve().parent.parent.parent
    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "fixtures")

    files = [p.resolve() for p in args.paths] or files_from_compile_commands(
        args.build_dir if args.build_dir.is_absolute() else root / args.build_dir,
        root,
    )

    if args.list_hot:
        for path in files:
            sf = SourceFile(path)
            for start, _end, fn in hot_regions(sf):
                print(f"{path}:{line_of(sf.stripped, start)}: {fn}")
        return 0

    findings: list[Finding] = []
    seen_engine = False
    for path in files:
        findings += lint_file(path, args)
        seen_engine |= str(path).replace("\\", "/").endswith(L4_FILE_SUFFIX)
    if not seen_engine and not args.paths:
        findings.append(
            Finding(Path(L4_FILE_SUFFIX), 1, "L4", "engine TU missing from lint set")
        )
    for f in findings:
        print(f)
    if findings:
        print(f"monge-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
