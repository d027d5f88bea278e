"""Golden diagnostics for the front end.

``tests/golden/diagnostics.json`` pins three things a front-end rewrite
must not move:

* **errors** — the full ``str()`` (``file:line:col: message``) of the
  error raised by each program in ``MALFORMED``.  The table has at least
  one program for every ``raise LexError``, ``raise ParseError`` and
  ``raise SemanticError`` site in ``src/repro/lang/`` that source text
  can reach, each on a line and column of its own;
* **reports** — the ``python -m repro lint --format json`` and ``check
  --format json`` output for every suite kernel, every ``examples/*.c``
  program and every source in ``tests/corpus``, ``tests/batch_corpus``
  and ``tests/timing_corpus``;
* **ast** — ``(node type, line, column)`` of every AST node, in walk
  order, for every suite kernel, so a location that lands on the wrong
  token shows.

Six ``SemanticError`` sites cannot be reached from source text, so the
table has no program for them: ``delay count must be non-negative`` (the
parser takes the count from an integer literal), ``within blocks cannot
nest`` (the straight-line check rejects the inner ``within`` first),
``assignment target is not an lvalue`` (the parser rejects it first),
and ``unsupported statement``, ``unknown unary operator`` and
``unsupported expression`` (the parser builds no such node).

A ``check`` message may print IR values (``%315 = +(%314, #9)``), and
value ids are numbered process-wide, so they depend on what the process
compiled before.  Each report's ids are renumbered in order of first
appearance (``%v0 = +(%v1, #9)``) before it is compared.

The fixture stores each source's text, so it does not drift when a
kernel is edited.  To intentionally change it, regenerate it in the same
commit and say why::

    PYTHONPATH=src python -m tests.test_golden_diagnostics
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lang import FrontendError, ast_nodes as ast, parse, parse_program

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "diagnostics.json"

_MAIN = "int main() {\n"
_VALUE_ID = re.compile(r"%\d+")

# name -> source; each raises one FrontendError from parse().
MALFORMED = {
    # LexError
    "lex/malformed-hex": "int main() {\n    return 0x;\n}\n",
    "lex/malformed-binary": "int main() {\n\treturn 0b_;\n}\n",
    "lex/unexpected-character": "int main() {\n    int x = 1;\n    x = x $ 2;\n}\n",
    "lex/non-ascii": "int main() {\n    int café = 1;\n}\n",
    "lex/non-ascii-digit": "int main() { return 1٣; }\n",
    "lex/letter-after-number": "int main() {\r\n  return 12abc;\r\n}\n",
    "lex/unterminated-comment": "int main() {\n  /* one\n  two */ /* three\n",
    # ParseError
    "parse/expect-semi": _MAIN + "    return 1\n}\n",
    "parse/expect-rparen": _MAIN + "    if (1 {\n    }\n}\n",
    "parse/unterminated-function-body": "int main() {\n    while (1) x = 1;\n",
    "parse/expect-channel-gt": "chan<int c;\nint main() { return 0; }\n",
    "parse/expect-array-size": "int g[n];\n",
    "parse/expect-declarator": "int main() {\n    int 3;\n}\n",
    "parse/expect-recv-channel": _MAIN + "    return recv(1);\n}\n",
    "parse/expect-delay-count": "void main() {\n    delay(x);\n}\n",
    "parse/expect-within-bound": "void main() {\n    within (n) { }\n}\n",
    "parse/expect-do-while": _MAIN + "    do { } until (1);\n}\n",
    "parse/expect-for-semi": _MAIN + "    for (int i = 0; i < 2) { }\n}\n",
    "parse/expect-param": "int f(chan<int> 3) { return 0; }\n",
    "parse/expect-global-semi": "int g = 1\nint main() { return g; }\n",
    "parse/expect-function-rparen": "int f(int a, int b {\n}\n",
    "parse/expect-array-init-brace": "int g[2] = {1, 2;\n",
    "parse/expect-wait": "void main() {\n    wait(1);\n}\n",
    "parse/expected-expression": _MAIN + "    int x = 1 + ;\n}\n",
    "parse/expected-expression-eof": _MAIN + "    int x = (",
    "parse/unterminated-block": _MAIN + "    int x = 1;\n",
    "parse/unterminated-par": "void main() {\n    par {\n        wait();\n",
    "parse/assign-not-lvalue": _MAIN + "    1 = 2;\n}\n",
    "parse/compound-not-lvalue": _MAIN + "    int x;\n    (x + 1) += 2;\n}\n",
    "parse/increment-not-lvalue": _MAIN + "    3++;\n}\n",
    "parse/expected-declaration": "int g;\nreturn g;\n",
    "parse/process-not-function": "process int g;\n",
    # SemanticError
    "sem/global-multidim": "int g[2][3];\nint main() { return 0; }\n",
    "sem/global-array-scalar-init": "int g[2] = 1;\nint main() { return 0; }\n",
    "sem/global-too-many-inits": "int g[2] = {1, 2, 3};\nint main() { return 0; }\n",
    "sem/global-scalar-brace-init": "int g = {1};\nint main() { return 0; }\n",
    "sem/global-not-constant": "int h;\nint g = 1 + h;\nint main() { return g; }\n",
    "sem/void-param": "int f(int a, void b) { return a; }\n",
    "sem/local-channel": "void main() {\n    chan<int> c;\n}\n",
    "sem/return-no-value": _MAIN + "    return;\n}\n",
    "sem/void-returns-value": "void main() {\n    return 1;\n}\n",
    "sem/return-wrong-type": _MAIN + "    int a[2];\n    return a;\n}\n",
    "sem/break-outside-loop": _MAIN + "    break;\n}\n",
    "sem/continue-outside-loop": _MAIN + "    if (1) { continue; }\n}\n",
    "sem/within-not-positive": "void main() {\n    within (0) { wait(); }\n}\n",
    "sem/within-not-straight-line": (
        "void main() {\n    int x;\n    within (2) {\n        x = 1;\n"
        "        while (x) { x = 0; }\n    }\n}\n"
    ),
    "sem/send-wrong-type": (
        "chan<int> c;\nvoid main() {\n    int a[2];\n    send(c, a);\n}\n"
    ),
    "sem/void-local": "void main() {\n    void v;\n}\n",
    "sem/local-multidim": _MAIN + "    int a[2][2];\n    return 0;\n}\n",
    "sem/local-array-scalar-init": _MAIN + "    int a[2] = 1;\n    return 0;\n}\n",
    "sem/local-too-many-inits": _MAIN + "    int a[1] = {1, 2};\n    return 0;\n}\n",
    "sem/local-element-type": (
        _MAIN + "    int b[2];\n    int a[2] = {1, b};\n    return 0;\n}\n"
    ),
    "sem/local-scalar-brace-init": _MAIN + "    int x = {1};\n    return x;\n}\n",
    "sem/local-init-type": _MAIN + "    int b[2];\n    int x = b;\n    return x;\n}\n",
    "sem/const-uninitialized": _MAIN + "    const int k;\n    return k;\n}\n",
    "sem/assign-const": _MAIN + "    const int k = 1;\n    k = 2;\n    return k;\n}\n",
    "sem/assign-whole-array": (
        _MAIN + "    int a[2];\n    int b[2];\n    a = b;\n    return 0;\n}\n"
    ),
    "sem/assign-wrong-type": _MAIN + "    int a[2];\n    int x;\n    x = a;\n}\n",
    "sem/par-race": (
        "void main() {\n    int x;\n    par {\n        x = 1;\n        x = 2;\n"
        "    }\n}\n"
    ),
    "sem/unknown-channel": "void main() {\n    send(c, 1);\n}\n",
    "sem/not-a-channel": "void main() {\n    int c;\n    c = recv(c);\n}\n",
    "sem/condition-not-scalar": _MAIN + "    int a[2];\n    if (a) { }\n    return 0;\n}\n",
    "sem/unknown-identifier": _MAIN + "    return y;\n}\n",
    "sem/function-as-value": "int f() { return 0; }\nint main() {\n    return f;\n}\n",
    "sem/deref-non-pointer": _MAIN + "    int x = 1;\n    return *x;\n}\n",
    "sem/address-of-non-lvalue": _MAIN + "    int *p;\n    p = &(1 + 2);\n    return 0;\n}\n",
    "sem/negate-array": _MAIN + "    int a[2];\n    return -a;\n}\n",
    "sem/compare-array": _MAIN + "    int a[2];\n    return a == 1;\n}\n",
    "sem/shift-array": _MAIN + "    int a[2];\n    return a << 1;\n}\n",
    "sem/combine-array": _MAIN + "    int a[2];\n    return a + 1;\n}\n",
    "sem/conditional-arms": _MAIN + "    int a[2];\n    return 1 ? a : 2;\n}\n",
    "sem/index-scalar": _MAIN + "    int x;\n    return x[0];\n}\n",
    "sem/unknown-function": _MAIN + "    return g(1);\n}\n",
    "sem/argument-count": "int f(int a) { return a; }\nint main() {\n    return f(1, 2);\n}\n",
    "sem/array-argument": (
        "int f(int a[4]) { return a[0]; }\nint main() {\n    int b[2];\n"
        "    return f(b);\n}\n"
    ),
    "sem/argument-type": (
        "int f(int a) { return a; }\nint main() {\n    int b[2];\n"
        "    return f(b);\n}\n"
    ),
    "sem/redeclaration": (
        _MAIN + "    int x;\n    {\n        int y;\n        int y;\n    }\n"
        "    return 0;\n}\n"
    ),
    "sem/redeclaration-global": "int g;\nint main() { return 0; }\nint g;\n",
}


def error_text(name: str, source: str) -> str:
    """``str()`` of the error ``source`` raises, compiled as ``name.c``."""
    with pytest.raises(FrontendError) as info:
        parse(source, filename=f"{name}.c")
    return f"{type(info.value).__name__}: {info.value}"


def report_sources() -> dict:
    """name -> (source, extra ``check`` arguments) for the JSON reports."""
    from repro.workloads import WORKLOADS

    sources = {f"suite/{w.name}.c": (w.source, []) for w in WORKLOADS}
    for path in sorted((ROOT / "examples").glob("*.c")):
        sources[f"examples/{path.name}"] = (path.read_text(), [])
    for corpus in ("corpus", "batch_corpus", "timing_corpus"):
        for path in sorted((ROOT / "tests" / corpus).rglob("*.json")):
            entry = json.loads(path.read_text())
            stem = path.relative_to(ROOT / "tests").with_suffix("").as_posix()
            extra = []
            if entry.get("pipeline_ii") is not None:
                extra = ["--pipeline-ii", str(entry["pipeline_ii"])]
            for field in ("source", "original_source"):
                if entry.get(field):
                    sources[f"{stem}.{field}.c"] = (entry[field], extra)
    return sources


def cli_json(command: str, name: str, source: str, extra: list) -> dict:
    """``python -m repro COMMAND NAME --format json``, run on ``source``
    saved as ``NAME`` under a scratch working directory."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out):
                assert main([command, name, "--format", "json", *extra]) == 0
        finally:
            os.chdir(cwd)
    ids: dict = {}
    text = _VALUE_ID.sub(
        lambda m: ids.setdefault(m.group(), f"%v{len(ids)}"), out.getvalue())
    return json.loads(text)


def walk_nodes(node: ast.Node):
    """Every AST node under ``node``, preorder, children in field order."""
    yield node
    for item in dataclasses.fields(node):
        value = getattr(node, item.name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Node):
                yield from walk_nodes(child)


def ast_rows(source: str) -> list:
    return [
        [type(node).__name__, node.location.line, node.location.column]
        for node in walk_nodes(parse_program(source))
    ]


def collect() -> dict:
    from repro.workloads import WORKLOADS

    return {
        "errors": [
            {"name": name, "source": source,
             "error": error_text(name, source)}
            for name, source in MALFORMED.items()
        ],
        "reports": [
            {"name": name, "source": source, "check_args": extra,
             "lint": cli_json("lint", name, source, []),
             "check": cli_json("check", name, source, extra)}
            for name, (source, extra) in report_sources().items()
        ],
        "ast": [
            {"name": f"suite/{w.name}", "source": w.source,
             "nodes": ast_rows(w.source)}
            for w in WORKLOADS
        ],
    }


def render(data: dict) -> str:
    """The fixture's JSON: one error per line and one AST node per line,
    so diffs stay readable."""
    errors = ",\n".join("  " + json.dumps(e) for e in data["errors"])
    reports = ",\n".join(
        json.dumps(r, indent=1, sort_keys=True) for r in data["reports"])
    trees = []
    for entry in data["ast"]:
        rows = ",\n".join("    " + json.dumps(row) for row in entry["nodes"])
        trees.append(
            "{\n"
            f'  "name": {json.dumps(entry["name"])},\n'
            f'  "source": {json.dumps(entry["source"])},\n'
            f'  "nodes": [\n{rows}\n  ]\n'
            "}"
        )
    return (
        '{\n"errors": [\n' + errors + '\n],\n'
        '"reports": [\n' + reports + '\n],\n'
        '"ast": [\n' + ",\n".join(trees) + "\n]\n}\n"
    )


_DATA = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
         else {"errors": [], "reports": [], "ast": []})


def test_fixture_covers_every_source():
    assert [e["name"] for e in _DATA["errors"]] == list(MALFORMED)
    assert [r["name"] for r in _DATA["reports"]] == list(report_sources())
    assert len(_DATA["ast"]) == 18


def test_every_error_class_and_site_kind_is_pinned():
    kinds = {e["error"].split(":", 1)[0] for e in _DATA["errors"]}
    assert kinds == {"LexError", "ParseError", "SemanticError"}


@pytest.mark.parametrize("entry", _DATA["errors"], ids=lambda e: e["name"])
def test_error_text_matches_golden(entry):
    assert error_text(entry["name"], entry["source"]) == entry["error"]


@pytest.mark.parametrize("entry", _DATA["reports"], ids=lambda e: e["name"])
def test_lint_and_check_reports_match_golden(entry):
    name, source = entry["name"], entry["source"]
    assert cli_json("lint", name, source, []) == entry["lint"]
    assert cli_json("check", name, source, entry["check_args"]) == entry["check"]


@pytest.mark.parametrize("entry", _DATA["ast"], ids=lambda e: e["name"])
def test_ast_locations_match_golden(entry):
    assert ast_rows(entry["source"]) == entry["nodes"]


if __name__ == "__main__":
    GOLDEN.write_text(render(collect()))
    print(f"wrote {GOLDEN}")
