"""Self-time arithmetic and tracer transparency."""

import types

import pytest

from spans import Tracer, self_times, write_spans


def _tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child
    # a1 [20, 30]; b has two overlapping children that cover [55, 85].
    return [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 20, 30, 1),
        ("b", 50, 90, 0),
        ("leaf", 55, 80, 3),
        ("leaf", 70, 85, 3),
    ]


def test_self_time_subtracts_union_of_direct_children():
    out = self_times(_tree())
    assert out["root"] == (100 - 30 - 40, 1)
    assert out["a"] == (30 - 10, 1)
    assert out["b"] == (40 - 30, 1)
    assert out["leaf"] == (10 + 25 + 15, 3)


def test_self_times_over_a_nested_tree_add_up_to_the_root():
    spans = _tree()[:4] + [("leaf", 55, 70, 3), ("leaf", 70, 85, 3)]
    out = self_times(spans)
    assert sum(ns for ns, _ in out.values()) == 100


def test_root_restricts_to_descendants():
    spans = _tree() + [("other", 200, 260, -1), ("a", 210, 220, 6)]
    assert self_times(spans, root=6) == {"other": (50, 1), "a": (10, 1)}
    assert self_times(spans, root=0) == self_times(_tree())


def test_children_outside_the_parent_interval_are_clipped():
    assert self_times([("p", 0, 10, -1), ("c", 5, 20, 0)])["p"] == (5, 1)


def test_wrapper_passes_results_and_errors_through_and_nests():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x, y=1: (x, y))
    boom = tracer.wrap("boom", lambda: 1 / 0)
    with tracer.span("outer"):
        assert inner(3, y=4) == (3, 4)
        with pytest.raises(ZeroDivisionError):
            boom()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("boom", 0)]
    assert tracer._current == -1


def test_installed_patches_restores_and_reports_absent_names():
    module = types.SimpleNamespace(f=lambda v: v + 1)
    original = module.f
    tracer = Tracer()
    seen = []
    names = {"f": ("layer.f", lambda t, a, k, r: seen.append(r)), "gone": ("layer.g", None)}
    with tracer.installed(module, names) as absent:
        assert module.f(1) == 2
        assert absent == ["gone"]
    assert module.f is original
    assert seen == [2]
    assert [s[0] for s in tracer.spans] == ["layer.f"]


def test_write_spans_one_line_per_span(tmp_path):
    path = tmp_path / "spans.tsv"
    write_spans(_tree(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(_tree())
    assert lines[2] == "1\t0\ta\t10\t40"
