"""Problem instances: kernels, forcing term, interval, and declared constants.

A :class:`Problem` describes one equation

    x(t) + INT_a^t k1(t, s, x(s)) ds + INT_a^b k2(t, s, x(s)) ds = g(t)

together with two user-declared constants: ``M``, the power-contraction
constant of the Volterra part (the L2 bound of k1's x-derivative over the
triangle a <= s <= t <= b), and ``L``, the Lipschitz constant of the Fredholm
part (the L2 bound of k2's x-derivative over the square).  They are inputs,
not derived symbolically; :func:`check_assumptions` audits them empirically.

The registry ships one builtin, ``benchmark``: the cosine-kernel equation on
[0, 1] with exact solution x(t) = t that the reference table in
:mod:`vfsolve.reference` was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr

__all__ = [
    "Problem",
    "AssumptionReport",
    "benchmark_problem",
    "from_expressions",
    "builtin_problem",
    "check_assumptions",
    "BUILTINS",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 12345


@dataclass(frozen=True, eq=False)
class Problem:
    """One Volterra-Fredholm equation of the second kind.

    ``k1``/``k2`` take (t, s, x) as numpy arrays of different shapes and must
    broadcast them.  On a grid of dim nodes, :mod:`vfsolve.discrete` passes
    ``k2`` a (dim, 1) column of nodes t, a (1, dim) row of nodes s and the
    (1, dim) state row x; it passes ``k1`` the same t column and (dim, dim)
    tables of s and x, in which the cells with s > t (zero Volterra weight)
    hold the clamped in-domain point (s_0, xi_0).  Either result is
    broadcast to (dim, dim), so a lower-rank array or a scalar is fine.
    ``g`` and ``exact`` take t alone.
    """

    a: float
    b: float
    k1: Callable
    k2: Callable
    g: Callable
    M: float
    L: float
    exact: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.b <= self.a:
            raise ValueError(f"need finite a < b, got [{self.a}, {self.b}]")
        for label, value in (("M", self.M), ("L", self.L)):
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{label} must be finite and nonnegative, got {value}")


def benchmark_problem() -> Problem:
    """The builtin benchmark: cosine Volterra kernel, linear Fredholm kernel,
    exact solution x(t) = t on [0, 1].

    k1 = 5*t*s*cos(x), k2 = (11/2)*t^2*s^2*x,
    g(t) = (11/8)t^2 - 4t + 5t cos(t) + 5t^2 sin(t),
    M^2 = 25/18, L^2 = 121/100.
    """
    return Problem(
        a=0.0,
        b=1.0,
        k1=lambda t, s, x: 5.0 * t * s * np.cos(x),
        k2=lambda t, s, x: 5.5 * (t * t) * (s * s) * x,
        g=lambda t: 1.375 * t * t - 4.0 * t + 5.0 * t * np.cos(t) + 5.0 * t * t * np.sin(t),
        M=float(np.sqrt(25.0 / 18.0)),
        L=1.1,
        exact=lambda t: np.asarray(t, dtype=float) * 1.0,
        name="benchmark",
    )


BUILTINS = {"benchmark": benchmark_problem}


def builtin_problem(name: str) -> Problem:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin problem {name!r}; available: {sorted(BUILTINS)}"
        ) from None


def _t_only(tree: expr.Expr, what: str) -> None:
    extra = expr.variables_used(tree) - {"t"}
    if extra:
        raise expr.ParseError(
            f"{what} may only use the variable t, found {sorted(extra)}"
        )


def from_expressions(
    a: float,
    b: float,
    k1_src: str,
    k2_src: str,
    g_src: str,
    M: float,
    L: float,
    exact_src: str | None = None,
    name: str = "custom",
) -> Problem:
    """Build a problem from expression strings in the t/s/x language.

    Parse errors (with source offsets) propagate from :mod:`vfsolve.expr`.
    The forcing term and the exact solution may only reference t.
    """
    k1_tree = expr.parse_expression(k1_src)
    k2_tree = expr.parse_expression(k2_src)
    g_tree = expr.parse_expression(g_src)
    _t_only(g_tree, "forcing term g")
    exact_tree = None
    if exact_src is not None:
        exact_tree = expr.parse_expression(exact_src)
        _t_only(exact_tree, "exact solution")

    def k1(t, s, x, _tree=k1_tree):
        return expr.evaluate(_tree, t, s, x)

    def k2(t, s, x, _tree=k2_tree):
        return expr.evaluate(_tree, t, s, x)

    def g(t, _tree=g_tree):
        return expr.evaluate(_tree, t, 0.0, 0.0)

    exact = None
    if exact_tree is not None:
        def exact(t, _tree=exact_tree):
            return expr.evaluate(_tree, t, 0.0, 0.0)

    return Problem(float(a), float(b), k1, k2, g, float(M), float(L), exact, name)


# ---------------------------------------------------------------------------
# empirical audit of the declared constants

@dataclass(frozen=True)
class AssumptionReport:
    """Empirical estimates over random state-vector pairs, weighted norm.

    ``lipschitz_F_ratio_max``  — max ||F(u)-F(v)|| / ||u-v||
    ``monotonicity_min``       — min <F(u)-F(v), u-v> / ||u-v||^2
    ``lipschitz_Phi_ratio_max``— max ||Phi(u)-Phi(v)|| / ||u-v||
    """

    lipschitz_F_ratio_max: float
    monotonicity_min: float
    lipschitz_Phi_ratio_max: float
    samples: int
    x_box: float

    def violations(self, problem: Problem) -> list[str]:
        """Which declared assumptions the samples contradict (empty = clean)."""
        slack = 1.0 + 1e-9
        out = []
        if self.lipschitz_F_ratio_max > problem.L * slack:
            out.append(
                "fredholm part exceeds the declared Lipschitz constant: "
                f"observed {self.lipschitz_F_ratio_max:.6g} > L = {problem.L:.6g}"
            )
        if self.monotonicity_min < 0.0:
            out.append(
                "fredholm part is not monotone: observed "
                f"<F(u)-F(v), u-v>/||u-v||^2 = {self.monotonicity_min:.6g} < 0"
            )
        if self.lipschitz_Phi_ratio_max > problem.M * slack:
            out.append(
                "volterra part exceeds the declared contraction constant: "
                f"observed {self.lipschitz_Phi_ratio_max:.6g} > M = {problem.M:.6g}"
            )
        return out


def default_x_box(problem: Problem, scheme) -> float:
    """Sample-box half-width: twice the largest |g| on the grid (1.0 if g = 0)."""
    gmax = float(np.max(np.abs(np.asarray(problem.g(scheme.nodes), dtype=float))))
    return 2.0 * gmax if gmax > 0.0 else 1.0


def check_assumptions(
    problem: Problem,
    scheme,
    pairs: int = 1000,
    x_box: float | None = None,
    seed: int = DEFAULT_SEED,
) -> AssumptionReport:
    """Audit M, L, and monotonicity on random vector pairs in [-x_box, x_box].

    Ratios use the weighted norm of :mod:`vfsolve.discrete`.  Raises on a
    non-finite kernel evaluation inside the box.
    """
    from . import discrete  # deferred: discrete type-checks against this module

    if pairs < 100:
        raise ValueError(f"need at least 100 sample pairs, got {pairs}")
    box = default_x_box(problem, scheme) if x_box is None else float(x_box)
    if box <= 0 or not np.isfinite(box):
        raise ValueError(f"x_box must be positive and finite, got {box}")

    sys = discrete.build_system(problem, scheme)
    rng = np.random.default_rng(seed)
    f_ratio = 0.0
    mono = np.inf
    phi_ratio = 0.0
    used = 0
    for _ in range(pairs):
        u = rng.uniform(-box, box, sys.dim)
        v = rng.uniform(-box, box, sys.dim)
        dn = discrete.norm(sys, u - v)
        if dn == 0.0:
            continue
        df = discrete.fred(sys, u) - discrete.fred(sys, v)
        dp = discrete.phi(sys, u) - discrete.phi(sys, v)
        f_ratio = max(f_ratio, discrete.norm(sys, df) / dn)
        mono = min(mono, discrete.inner(sys, df, u - v) / dn**2)
        phi_ratio = max(phi_ratio, discrete.norm(sys, dp) / dn)
        used += 1
    return AssumptionReport(f_ratio, float(mono), phi_ratio, used, box)
