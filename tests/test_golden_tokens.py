"""Golden token streams for the lexer.

``tests/golden/tokens.json`` pins, for every suite kernel, every
``examples/*.c`` program and every source in the triaged failure corpus,
the exact token stream ``tokenize`` produces — kind, text, line, column,
value and type info of each token — and a digest of
``runner.cache.normalized_source``.  A scanner rewrite must reproduce it
byte for byte, so the AST, the designs and the cache keys cannot move.

The fixture stores each source's text, so it does not drift when a
kernel is edited.  To intentionally change it, regenerate it in the same
commit and say why::

    PYTHONPATH=src python -m tests.test_golden_tokens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.lang import tokenize
from repro.runner.cache import normalized_source

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "tokens.json"

# Every operator, literal form, type name and layout rule in one text, so
# the fixture pins the lexical features the kernels happen not to use.
LEXICAL_TOUR = (
    "// every operator, longest match first\n"
    "a<<=b>>=c<<d>>e<=f>=g==h!=i&&j||k+=l-=m*=n/=o%=p&=q|=r^=s++t--;\n"
    "+-*/%&|^~!<>=()[]{};,?:\r\n"
    "\tx = 0x1F + 0XdEaD_bEeF + 0b1010 + 0B1_0 + 1_000 + 007 + 0_1;\r\n"
    "/* block\n   comment */ void bool int uint char uint1 int128 uint129\n"
    "if else while do for return break continue par seq chan send recv wait\n"
    "delay within true false const process _x x_1 __ uint0 int07\n"
    "0b12 // binary then decimal"
)


def token_rows(source: str) -> list:
    tokens = tokenize(source)
    rows = []
    for index, (kind, text) in enumerate(zip(tokens.kinds, tokens.texts)):
        location = tokens.location(index)
        info = tokens.type_info(index)
        rows.append([kind.name, text, location.line, location.column,
                     tokens.value(index), list(info) if info else info])
    return rows


def normalized_digest(source: str) -> str:
    return hashlib.sha256(normalized_source(source).encode()).hexdigest()


def collect_sources() -> dict:
    """name -> source text, for every program the fixture covers."""
    from repro.workloads import WORKLOADS

    sources = {f"suite/{w.name}": w.source for w in WORKLOADS}
    sources["lexical-tour"] = LEXICAL_TOUR
    for path in sorted((ROOT / "examples").glob("*.c")):
        sources[f"examples/{path.name}"] = path.read_text()
    seen = set(sources.values())
    for path in sorted((ROOT / "tests" / "corpus").rglob("*.json")):
        entry = json.loads(path.read_text())
        rel = path.relative_to(ROOT / "tests").as_posix()
        for field in ("source", "original_source"):
            text = entry.get(field)
            if text and text not in seen:
                seen.add(text)
                sources[f"{rel}#{field}"] = text
    return sources


def render(sources: dict) -> str:
    """The fixture's JSON, one token per line so diffs stay readable."""
    parts = []
    for name, source in sources.items():
        rows = ",\n".join("    " + json.dumps(row) for row in token_rows(source))
        parts.append(
            "{\n"
            f'  "name": {json.dumps(name)},\n'
            f'  "source": {json.dumps(source)},\n'
            f'  "normalized_sha256": "{normalized_digest(source)}",\n'
            f'  "tokens": [\n{rows}\n  ]\n'
            "}"
        )
    return "[\n" + ",\n".join(parts) + "\n]\n"


_ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_fixture_covers_every_source():
    names = [entry["name"] for entry in _ENTRIES]
    assert names == list(collect_sources())
    assert sum(name.startswith("suite/") for name in names) == 18


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e["name"])
def test_token_stream_matches_golden(entry):
    assert token_rows(entry["source"]) == entry["tokens"]


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e["name"])
def test_normalized_source_matches_golden(entry):
    assert normalized_digest(entry["source"]) == entry["normalized_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(render(collect_sources()))
    print(f"wrote {GOLDEN}")
