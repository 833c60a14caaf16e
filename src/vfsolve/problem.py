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

from . import discrete, expr

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

    :func:`check_assumptions` evaluates stacks of states, so kernels and the
    factors of their separable forms may also get x with leading batch
    axes, as (P, 1, dim) for ``k2`` and every ``e_r`` and (P, dim, dim)
    for ``k1``, with t and s unchanged; the result is broadcast to
    (P, dim, dim).  They must act elementwise, so that each slice of the
    result is what the single state gives.  A kernel that does not
    broadcast so (one that raises) is audited pair by pair instead.

    ``k1_terms``/``k2_terms`` optionally declare a kernel's separable form
    k(t, s, x) = sum_r c_r(t, s) * e_r(s, x), summed from r = 1 up, as a
    tuple of pairs (c_r, e_r).  ``c_r(t, s)`` does not depend on the state
    and ``e_r(s, x)`` not on t; both broadcast their arguments like the
    kernels.  :func:`vfsolve.discrete.build_system` checks the form against
    the kernel; a kernel table then costs dim evaluations of each e_r, and
    k2's c_r are evaluated once per grid.  Written as the kernel's last
    operations (as :func:`benchmark_problem` does), the form gives
    bit-identical tables.  The kernel stays the definition and the error
    path.  Replacing a kernel (``dataclasses.replace``) keeps its terms:
    replace or clear them too.
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
    k1_terms: Optional[tuple] = None
    k2_terms: Optional[tuple] = None

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.b <= self.a:
            raise ValueError(f"need finite a < b, got [{self.a}, {self.b}]")
        for label, value in (("M", self.M), ("L", self.L)):
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{label} must be finite and nonnegative, got {value}")


def benchmark_problem() -> Problem:
    """The builtin benchmark: cosine Volterra kernel, linear Fredholm kernel,
    exact solution x(t) = t on [0, 1].

    k1 = 5*t*s*cos(x), k2 = (11/2)*t^2*s^2*x (each one separable term),
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
        # each kernel's own last product: bit-identical tables
        k1_terms=((lambda t, s: 5.0 * t * s, lambda s, x: np.cos(x)),),
        k2_terms=((lambda t, s: 5.5 * (t * t) * (s * s), lambda s, x: x),),
    )


BUILTINS = {"benchmark": benchmark_problem}


def builtin_problem(name: str) -> Problem:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin problem {name!r}; available: {sorted(BUILTINS)}"
        ) from None


def _function_of_t(src: str, what: str) -> Callable:
    tree = expr.parse_expression(src)
    extra = expr.variables_used(tree) - {"t"}
    if extra:
        raise expr.ParseError(
            f"{what} may only use the variable t, found {sorted(extra)}"
        )
    of_tsx = expr.compile_expression(tree)
    return lambda t: of_tsx(t, 0.0, 0.0)


def _factor(tree: expr.Expr, first: str) -> Callable:
    """A factor as a function of (t, s) or (s, x), by ``first``: compiled, or
    plain for a bare variable or constant (discrete takes no error from it)."""
    if type(tree) is expr.Const:
        return lambda u, v, value=tree.value: value
    if type(tree) is expr.Var:
        return (lambda u, v: u) if tree.name == first else (lambda u, v: v)
    f = expr.compile_expression(tree)
    return (lambda t, s: f(t, s, 0.0)) if first == "t" else (lambda s, x: f(0.0, s, x))


def _terms(tree: expr.Expr) -> tuple | None:
    """A kernel tree's separable form (:func:`vfsolve.expr.split_terms`), compiled."""
    pairs = expr.split_terms(tree)
    if pairs is None:
        return None
    return tuple((_factor(c, "t"), _factor(e, "s")) for c, e in pairs)


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
    The forcing term and the exact solution may only reference t.  Each
    expression is compiled once (:func:`vfsolve.expr.compile_expression`),
    and so is each factor of a kernel's separable form, when it has one.
    """
    k1_tree = expr.parse_expression(k1_src)
    k2_tree = expr.parse_expression(k2_src)
    g = _function_of_t(g_src, "forcing term g")
    exact = None if exact_src is None else _function_of_t(exact_src, "exact solution")
    return Problem(
        float(a), float(b),
        expr.compile_expression(k1_tree), expr.compile_expression(k2_tree),
        g, float(M), float(L), exact, name,
        k1_terms=_terms(k1_tree), k2_terms=_terms(k2_tree),
    )


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


def _pair_ratios(system, u: np.ndarray, v: np.ndarray) -> tuple | None:
    """One pair's three ratios through the checked maps; None if ||u - v|| = 0.

    This is the audit's definition, errors included; blocks replay through it.
    """
    dn = discrete.norm(system, u - v)
    if dn == 0.0:
        return None
    df = discrete.fred(system, u) - discrete.fred(system, v)
    dp = discrete.phi(system, u) - discrete.phi(system, v)
    return (
        discrete.norm(system, df) / dn,
        discrete.inner(system, df, u - v) / dn**2,
        discrete.norm(system, dp) / dn,
    )


def _block_ratios(system, uv: np.ndarray, tables, clamped) -> list | None:
    """:func:`_pair_ratios` of each pair (u, v) in a (k, 2, dim) block, from
    stacked kernel tables; None where the block must replay pair by pair.

    A separable form writes the k2 stack into ``tables``, a (k, 2, dim, dim)
    buffer, and once it is summed the k1 stack, which is masked and
    weighted in place (``clamped`` is ``~system.volterra_mask``); a
    kernel's own tables are summed as they come.  The sums run along the
    last axis in :mod:`vfsolve.discrete`'s order, so a block whose values
    are all finite, with no ||u - v|| = 0, gives the ratios of the pair
    loop bit for bit.
    """
    w = system.scheme.global_weights
    d = uv[:, 0] - uv[:, 1]
    fr = discrete._table(system, "k2", uv, out=tables) @ w
    vals = discrete._table(system, "k1", uv, out=tables)
    ph = discrete._volterra_sum(system, vals, clamped=clamped if vals is tables else None)
    # each stage checked before the next, which would only warn about it
    if not all(np.isfinite(a).all() for a in (d, fr, ph)):
        return None
    df = fr[:, 0] - fr[:, 1]
    dp = ph[:, 0] - ph[:, 1]
    if not (np.isfinite(df).all() and np.isfinite(dp).all()):
        return None
    # discrete.norm's and discrete.inner's sums: ||d||^2, ||df||^2, ||dp||^2,
    # <df, d>, as silent as theirs on overflow
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.sum([w * d * d, w * df * df, w * dp * dp, w * (df * d)], axis=-1)
    if not np.isfinite(sums).all() or not sums[0].all():
        return None
    dn, fn, pn = np.sqrt(sums[:3]).tolist()
    return [(f / n, i / n**2, p / n) for n, f, p, i in zip(dn, fn, pn, sums[3].tolist())]


def check_assumptions(
    problem: Problem,
    scheme,
    pairs: int = 1000,
    x_box: float | None = None,
    seed: int = DEFAULT_SEED,
    system=None,
) -> AssumptionReport:
    """Audit M, L, and monotonicity on random vector pairs in [-x_box, x_box].

    Ratios use the weighted norm of :mod:`vfsolve.discrete`.  Raises on a
    non-finite kernel evaluation inside the box.  ``system``, when given, is
    ``discrete.build_system(problem, scheme)`` already built, and is used
    instead of building it again; the default box is taken from its
    ``g_vec``, so a bad forcing term is named by ``build_system``.

    The pairs are drawn and evaluated a block at a time: a block's states
    are stacked, their kernel tables built in one pass (about
    ``discrete._BLOCK_CELLS`` = 50,000 cells, at least one pair), and its
    ratios reduced together.  A separable form writes the tables into one
    buffer allocated once per audit, k2's and then k1's, whose weighted
    cells are formed in place; a kernel's own tables are fresh.  A block with a
    non-finite value, a pair with u = v in norm, or an evaluation that
    raises (a warning raised as an error included) is replayed pair by pair
    through the checked maps, which raise the first error, with its text, or
    give the block's ratios.  Earlier blocks all passed, so the report and
    every error are those of a pair-by-pair audit, bit for bit.
    """
    if pairs < 100:
        raise ValueError(f"need at least 100 sample pairs, got {pairs}")
    if system is None:
        system = discrete.build_system(problem, scheme)
    elif system.problem is not problem or system.scheme is not scheme:
        raise ValueError("system was built for another problem or scheme")
    if x_box is None:  # twice the largest |g| on the nodes, 1.0 if g = 0
        gmax = float(np.max(np.abs(system.g_vec)))
        x_box = 2.0 * gmax if gmax > 0.0 else 1.0
    box = float(x_box)
    if box <= 0 or not np.isfinite(box):
        raise ValueError(f"x_box must be positive and finite, got {box}")

    rng = np.random.default_rng(seed)
    dim = system.dim
    block = max(1, discrete._BLOCK_CELLS // (2 * dim**2))
    # the stacked tables' buffer, kept for the whole audit
    tables = np.empty((block, 2, dim, dim))
    clamped = ~system.volterra_mask
    f_ratio = 0.0
    mono = np.inf
    phi_ratio = 0.0
    used = 0
    for start in range(0, pairs, block):
        n = min(block, pairs - start)
        uv = rng.uniform(-box, box, (n, 2, dim))
        try:
            ratios = _block_ratios(system, uv, tables[:n], clamped)
        except Exception:  # the pair loop raises it, or gets past it
            ratios = None
        if ratios is None:
            ratios = [_pair_ratios(system, u, v) for u, v in uv]
        for r in ratios:
            if r is None:
                continue
            f_ratio = max(f_ratio, r[0])
            mono = min(mono, r[1])
            phi_ratio = max(phi_ratio, r[2])
            used += 1
    return AssumptionReport(f_ratio, float(mono), phi_ratio, used, box)
