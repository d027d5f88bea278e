"""Property-based contract for the content-addressed artifact cache.

Two halves of one promise:

* **Hits are bit-identical.**  Any layout-only perturbation of a source —
  inserted comments, extra blank lines, reindentation — normalizes to the
  same token stream, so it must replay the original compile from the
  cache, and the replayed result must equal the cold one on every
  semantic field (same RTL hash, same cycle count, same diagnostics).
* **Token changes miss.**  Perturbing an actual token (a literal, an
  identifier) must produce a different cache key, so a stale artifact can
  never be served for changed code.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import SynthesisOptions
from repro.runner import ArtifactCache, MatrixEngine, CellTask, cell_key
from repro.runner.cache import normalized_source

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BASE_SOURCE = (
    "int main(int n) {\n"
    "  int acc = 1;\n"
    "  int i;\n"
    "  for (i = 0; i < n; i++) {\n"
    "    acc = acc * 3 + i;\n"
    "  }\n"
    "  return acc;\n"
    "}\n"
)

_comments = st.sampled_from([
    "// touched\n", "/* reviewed */\n", "\n", "\n\n", "  \t\n",
    "// TODO: nothing\n", "/* multi\n   line */\n",
])


@st.composite
def layout_perturbations(draw):
    """Insert comments/blank lines at random line boundaries and pad
    random lines with trailing whitespace — token stream unchanged."""
    lines = BASE_SOURCE.splitlines(keepends=True)
    out = []
    for line in lines:
        if draw(st.booleans()):
            out.append(draw(_comments))
        if draw(st.booleans()):
            line = line.rstrip("\n") + draw(st.sampled_from(["  \n", "\t\n", " \n"]))
        out.append(line)
    if draw(st.booleans()):
        out.append(draw(_comments))
    return "".join(out)


def _task(source, flow="handelc"):
    return CellTask(workload="prop", source=source,
                    options=SynthesisOptions(flow=flow), args=(6,))


@given(perturbed=layout_perturbations())
@settings(**_SETTINGS)
def test_layout_perturbation_hits_bit_identical(tmp_path_factory, perturbed):
    root = tmp_path_factory.mktemp("cache")
    cold_cache = ArtifactCache(root)
    [cold] = MatrixEngine(cache=cold_cache).run_cells([_task(BASE_SOURCE)])
    assert cold.ok and not cold.cached

    warm_cache = ArtifactCache(root)
    [warm] = MatrixEngine(cache=warm_cache).run_cells([_task(perturbed)])

    assert normalized_source(perturbed) == normalized_source(BASE_SOURCE)
    assert warm.cached, "layout-only change must replay from the cache"
    assert warm_cache.hits == 1 and warm_cache.misses == 0
    assert warm.rtl_hash == cold.rtl_hash
    assert warm.cycles == cold.cycles
    assert warm.diagnostics == cold.diagnostics
    assert warm.identity() == cold.identity()


_token_edits = st.sampled_from([
    ("acc * 3", "acc * 4"),        # literal
    ("acc = 1", "acc = 2"),        # initial value
    ("i < n", "i <= n"),           # operator
    ("int acc", "int total"),      # identifier (declaration + uses differ)
    ("return acc;", "return acc + 1;"),
])


@given(edit=_token_edits)
@settings(**_SETTINGS)
def test_token_change_misses(tmp_path_factory, edit):
    old, new = edit
    changed = BASE_SOURCE.replace(old, new)
    assert changed != BASE_SOURCE
    assert normalized_source(changed) != normalized_source(BASE_SOURCE)
    assert cell_key(_task(changed)) != cell_key(_task(BASE_SOURCE))

    root = tmp_path_factory.mktemp("cache")
    [cold] = MatrixEngine(cache=ArtifactCache(root)).run_cells(
        [_task(BASE_SOURCE)]
    )
    probe_cache = ArtifactCache(root)
    [fresh] = MatrixEngine(cache=probe_cache).run_cells([_task(changed)])
    assert not fresh.cached, "token change must not be served a stale artifact"
    assert probe_cache.hits == 0


@given(perturbed=layout_perturbations())
@settings(**_SETTINGS)
def test_key_is_stable_under_layout(perturbed):
    assert cell_key(_task(perturbed)) == cell_key(_task(BASE_SOURCE))
