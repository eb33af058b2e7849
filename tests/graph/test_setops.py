"""``sorted_unique`` is a drop-in for a plain ``np.unique``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.graph.csr import sorted_unique

DTYPES = (np.int32, np.int64)


def _assert_matches_np_unique(values: np.ndarray) -> None:
    before = values.copy()
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(values, before), "caller's array was mutated"


@pytest.mark.parametrize("dtype", DTYPES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matches_np_unique(dtype, data):
    values = data.draw(
        hnp.arrays(
            dtype,
            st.integers(0, 300),
            elements=st.integers(-50, 50) | st.integers(-(2**31), 2**31 - 1),
        )
    )
    _assert_matches_np_unique(values)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [3, 3, 3, 3],
        [-5, 2, -5, -1, 0, -1],
        [-3, -1, 0, 0, 4, 9, 9, 12],
    ],
    ids=["empty", "single", "all-equal", "negative", "already-sorted"],
)
def test_edge_inputs(dtype, values):
    _assert_matches_np_unique(np.array(values, dtype=dtype))


# ----------------------------------------------------------------------
# Guard: no hash-table set operations in the library
# ----------------------------------------------------------------------

# Structured-dtype ``np.unique`` in a test helper; sort-and-mask would
# need a lexsort there and the helper is never on a hot path.
ALLOWED = {("repro/graph/semantic.py", "SemanticGraph.edge_set")}
HASHED = {"setdiff1d", "union1d"}


def _hash_set_op_calls(tree: ast.AST):
    """Yield ``(qualname, lineno, call)`` of every offending numpy call."""
    scope: list[str] = []

    def visit(node):
        named = isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        if named:
            scope.append(node.name)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            attr = node.func.attr
            plain_unique = attr == "unique" and not any(
                (kw.arg or "").startswith("return_") for kw in node.keywords
            )
            if plain_unique or attr in HASHED:
                yield ".".join(scope), node.lineno, f"np.{attr}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if named:
            scope.pop()

    yield from visit(tree)


def test_library_has_no_hash_based_set_ops():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        if rel.startswith("repro/lint/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, lineno, call in _hash_set_op_calls(tree):
            if (rel, qualname) not in ALLOWED:
                where = qualname or "<module>"
                offenders.append(f"{rel}:{lineno} {call} in {where}")
    assert not offenders, (
        "numpy >= 2.3 runs plain np.unique (and setdiff1d/union1d, which "
        "call it) through a hash table, about 20x slower than sorting; use "
        "repro.graph.csr.sorted_unique instead:\n  " + "\n  ".join(offenders)
    )
