import math

import numpy as np
import pytest

from ftqc import optimize


def _quadratic(n, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(np.linspace(1.0, 10.0, n)) @ Q.T
    b = rng.normal(size=n)
    return A, b, lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)


def _rosenbrock(x):
    """Chained Rosenbrock: sum of 100 (x[i+1] - x[i]^2)^2 + (1 - x[i])^2."""
    head, tail = x[:-1], x[1:]
    r = tail - head * head
    f = float(np.sum(100.0 * r * r + (1.0 - head) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * head * r - 2.0 * (1.0 - head)
    g[1:] += 200.0 * r
    return f, g


def _ripple(x):
    """cos(4 pi x / 3) + x^2 / 20 per coordinate: from x = 0.95 a unit step
    lands near a crest, where the slope is flat but the value is higher."""
    w = 4.0 * math.pi / 3.0
    return float(np.sum(np.cos(w * x) + 0.05 * x * x)), -w * np.sin(w * x) + 0.1 * x


def test_convex_quadratic_converges_to_the_solve():
    A, b, fun = _quadratic(5, 0)
    res = optimize.minimize(fun, np.zeros(5), maxiter=400)
    assert res.status == 0
    assert res.grad_norm <= optimize.GTOL
    assert res.grad_norm == np.max(np.abs(A @ res.x - b))
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-6)


def test_rosenbrock_from_the_standard_start():
    res = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]), maxiter=400)
    assert res.status == 0
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)
    assert res.fun == _rosenbrock(res.x)[0]


def test_iteration_cap_reports_status_one():
    res = optimize.minimize(_rosenbrock, np.array([-1.2, 1.0]), maxiter=5)
    assert res.status == 1
    assert res.nit == 5


def test_infinite_value_past_a_wall_is_backed_off():
    # the minimum (3, 0) lies past a wall at x0 = 2 where fun returns inf
    def fun(x):
        if x[0] > 2.0:
            return math.inf, np.full(2, np.nan)
        return float((x[0] - 3.0) ** 2 + x[1] ** 2), 2.0 * (x - [3.0, 0.0])

    res = optimize.minimize(fun, np.array([0.0, 1.0]), maxiter=100)
    assert np.all(np.isfinite(res.x)) and res.x[0] <= 2.0
    assert math.isfinite(res.fun) and res.fun < fun(np.array([0.0, 1.0]))[0]
    # a start past the wall has no descent to search
    res = optimize.minimize(fun, np.array([2.5, 0.0]), maxiter=100)
    assert (res.status, res.nit, res.nfev) == (2, 0, 1)


@pytest.mark.parametrize("fun, x0", [
    (_rosenbrock, [-1.2, 1.0, -0.5, 0.8, 1.5, -1.0]),
    (_ripple, [0.95]),
], ids=["rosenbrock", "ripple"])
def test_every_accepted_step_meets_the_strong_wolfe_conditions(fun, x0):
    seen = {}

    def spy(x):
        f, g = fun(x)
        seen[x.tobytes()] = (f, g)
        return f, g

    x0 = np.array(x0)
    first = optimize.minimize(spy, x0, maxiter=400)
    assert first.status == 0
    # the k-iteration run stops at the k-th accepted point, which spy saw
    points = [optimize.minimize(spy, x0, maxiter=k).x for k in range(first.nit + 1)]
    for k in range(first.nit):
        x, x_next = points[k], points[k + 1]
        f, g = seen[x.tobytes()]
        f_next, g_next = seen[x_next.tobytes()]
        s = x_next - x
        slope = float(g @ s)
        assert slope < 0.0
        assert f_next <= f + optimize.C1 * slope + 1e-12 * abs(f)
        assert abs(float(g_next @ s)) <= optimize.C2 * abs(slope) * (1.0 + 1e-9)


def test_nfev_counts_every_call():
    calls = []

    def spy(x):
        calls.append(x)
        return _rosenbrock(x)

    res = optimize.minimize(spy, np.array([-1.2, 1.0]), maxiter=400)
    assert res.nfev == len(calls)
