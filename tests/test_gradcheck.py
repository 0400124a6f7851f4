import ast
import inspect

import numpy as np
import pytest

from mekd import autodiff as ad
from mekd.gradcheck import (
    _away_from,
    analytic_gradient,
    max_relative_error,
    numeric_gradient,
    op_suite,
    run_op_suite,
)


def test_numeric_gradient_quadratic():
    x = np.array([1.0, -3.0, 2.0])
    (g,) = numeric_gradient(lambda a: float((a * a).sum()), [x])
    assert np.allclose(g, 2 * x, atol=1e-8)
    assert np.array_equal(x, [1.0, -3.0, 2.0])  # input restored


def test_analytic_gradient_matches_closed_form():
    x = np.array([[0.5, -1.5]])
    (g,) = analytic_gradient(lambda t: ad.square(t).sum(), [x])
    assert np.allclose(g, 2 * x, atol=1e-12)


def test_max_relative_error_small_for_correct_op():
    x = np.random.default_rng(0).standard_normal((3, 4))
    err = max_relative_error(lambda t: ad.tanh(t).sum(), [x])
    assert err < 1e-8


def test_max_relative_error_detects_wrong_gradient():
    # exp whose gradient function passes g through, as if exp' were 1
    def broken_exp(t):
        return ad._result(np.exp(t.data), (t,), "exp", (lambda g: g,))

    x = np.array([[2.0, 3.0]])
    assert max_relative_error(lambda t: broken_exp(t).sum(), [x]) > 1e-2


def test_away_from_clears_margin():
    x = np.array([-0.02, 0.01, 0.5, -0.49])
    out = _away_from(x, [0.0, -0.5], margin=0.08)
    assert np.all(np.abs(out - 0.0) >= 0.08 - 1e-12)
    assert np.all(np.abs(out - (-0.5)) >= 0.08 - 1e-12)
    assert out[2] == 0.5  # untouched: already clear of both points


def _result_labels() -> set[str]:
    """Every op label the autodiff module passes to ``_result``."""
    tree = ast.parse(inspect.getsource(ad))
    return {node.args[2].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_result"}


def test_op_suite_covers_required_ops():
    labels = _result_labels()
    assert {"add", "mul", "matmul", "linear", "exp", "sqrt", "clip", "transpose"} <= labels
    built = set()
    for _, build, arrays in op_suite(0):
        stack = [build(*[ad.Tensor(a, requires_grad=True) for a in arrays])]
        while stack:
            node = stack.pop()
            built.add(node.op)
            stack.extend(node._parents)
    assert labels <= built, sorted(labels - built)


def test_run_op_suite_small_pass():
    worst = run_op_suite(shapes_per_op=2, tol=1e-4, seed=123)
    assert worst and all(err < 1e-4 for err in worst.values())


def test_run_op_suite_reports_lines():
    lines = []
    run_op_suite(shapes_per_op=1, tol=1e-4, seed=5, report=lines.append)
    assert len(lines) == len(op_suite(0))
    assert all("max rel err" in ln for ln in lines)
