"""Fixed-step integration and differentiation on uniform time grids.

A time-dependent integrand enters as its samples at ``TimeGrid.stage_ts``,
the grid nodes and the step midpoints, which are the only times an RK4 or
Simpson step reads.  Matrix flows use the classical fourth-order Runge-Kutta
scheme.  A linear flow ``Xdot = L(t) X`` (or ``X L(t)``) takes all its RK4
step factors at once, as matrix polynomials of the stage samples, and its
path is their running product, taken as a blocked scan.  Every flow is a
group flow: it polishes the factors onto the J-orthogonal group of its form,
gives every node one inverse-free Newton-Schulz step, and checks every node:
the stack's worst entry decides, and per-node values only name a failing
node, also one where the path overflowed.  The flow works in place: its step
factors share one scratch stack, the polish takes no copy, and the scan and
the node step write into the returned path; the generators and the start
value are never written into.
Every matrix flow of the package is such a linear flow, and real: complex
input is refused (a complex group enters as its real form).  ``reproject``
polishes one matrix or a whole stack.  Vector quadrature is the
cumulative Simpson sum (what RK4 collapses to for a pure-time integrand, exact
for cubic polynomials).  Grid differentiation is fourth order, with one-sided
stencils at the two nodes on each end of the grid, and needs five nodes.
Dense output is the not-a-knot cubic spline through samples at uniform nodes,
which also gives its own exact integral (``NotAKnotCubic.integral``); its
table of rows for evaluation is built on the first evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import _j_gram_defect, _real, j_orthogonality_scale

__all__ = [
    "TimeGrid",
    "reproject",
    "reproject_info",
    "flow_matrix_ode",
    "integrate_vector",
    "fd_derivative",
    "dense_from_samples",
]

REPROJECT_TOL = 1e-12
REPROJECT_MAX_ITER = 50


def _integer(value, name):
    """``value`` as an int if it is a plain or numpy integer; a bool or any other
    number, which a cast would truncate, is refused with a TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps intervals on [t0, t1]."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"grid ends must be finite, got t0={self.t0}, t1={self.t1}")
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")
        if _integer(self.n_steps, "n_steps") < 1:
            raise ValueError("need at least one step")

    @property
    def h(self):
        return (self.t1 - self.t0) / self.n_steps

    @property
    def n_nodes(self):
        return self.n_steps + 1

    @property
    def ts(self):
        return np.linspace(self.t0, self.t1, self.n_steps + 1)

    @property
    def stage_ts(self):
        """The 2 n_steps + 1 stage times: node k is entry 2k, its step midpoint 2k + 1."""
        return np.linspace(self.t0, self.t1, 2 * self.n_steps + 1)


def _newton_step(X, form):
    """One Newton step X <- (X + J X^{-T} J)/2 on a stack of matrices."""
    try:
        Y = np.linalg.inv(np.swapaxes(X, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise ValueError("reprojection hit a singular iterate") from exc
    signs = form.signs
    return 0.5 * (X + signs[:, None] * Y * signs)


def reproject_info(X, form, tol=REPROJECT_TOL, max_iter=REPROJECT_MAX_ITER):
    """Newton iteration X <- (X + J X^{-T} J)/2 onto the J-orthogonal group.

    ``X`` is one real (d, d) matrix or a stack (..., d, d); a stack is polished
    as a whole, every matrix stepping until the worst residual, one max of
    |X^T J X - J| over the whole stack, is at most ``tol``.  Returns
    (projected matrices, iterations used, worst final residual).  Quadratic
    convergence near the group; raises if the iteration stalls or hits a
    singular iterate anywhere in the stack.
    ``X`` is never written into: each step builds a new stack, and a float
    ``X`` that needs no step is returned itself.
    """
    X = _real(X, "reproject input")
    if X.shape[-2:] != (form.dim, form.dim):
        raise ValueError("matrix shape does not match the form")
    residual = np.max(_j_gram_defect(X, form.signs), initial=0.0)
    for it in range(max_iter):
        if residual <= tol:
            return X, it, residual
        X = _newton_step(X, form)
        residual = np.max(_j_gram_defect(X, form.signs), initial=0.0)
    if residual <= tol:
        return X, max_iter, residual
    raise ValueError(
        f"reprojection did not converge in {max_iter} iterations "
        f"(residual {residual:.3e})"
    )


def reproject(X, form, tol=REPROJECT_TOL, max_iter=REPROJECT_MAX_ITER):
    return reproject_info(X, form, tol=tol, max_iter=max_iter)[0]


def _check_stage_samples(samples, grid):
    if samples.shape[:1] != (2 * grid.n_steps + 1,):
        raise ValueError(
            f"need {2 * grid.n_steps + 1} samples at the grid's stage times, "
            f"got shape {samples.shape}"
        )


def _identity_plus(c, X, out=None):
    """I + c X for a stack of square matrices: one scaling into a C-ordered array
    (``out``, which may be X itself) plus an add to its diagonal."""
    out = np.multiply(c, X, out=out, order="C")
    d = X.shape[-1]
    out.reshape(out.shape[:-2] + (d * d,))[..., ::d + 1] += 1.0
    return out


def _step_factors(L, h, side):
    """RK4 step maps M_k of a linear flow, stacked: X_{k+1} = M_k X_k (left) or X_k M_k.

    The three operands I + c K share one scratch stack, and the stage sum
    L0 + 2 K2 + 2 K3 + K4 is taken in place, in that order, K4 in K3's stack."""
    L0, Lh, L1 = L[:-1:2], L[1::2], L[2::2]
    scratch = _identity_plus(0.5 * h, L0)
    if side == "left":
        K2 = Lh @ scratch
        K3 = Lh @ _identity_plus(0.5 * h, K2, out=scratch)
    else:
        K2 = scratch @ Lh
        K3 = _identity_plus(0.5 * h, K2, out=scratch) @ Lh
    _identity_plus(h, K3, out=scratch)
    K2 *= 2.0
    K2 += L0
    K3 *= 2.0
    K2 += K3
    K4 = np.matmul(L1, scratch, out=K3) if side == "left" else np.matmul(scratch, L1, out=K3)
    K2 += K4
    return _identity_plus(h / 6.0, K2, out=K2)


def _running_product(factors, X0, side, out=None):
    """Nodes 1..n of the flow: X0 M_0 ... M_{k-1} (side "right") or M_{k-1} ... M_0 X0.

    A two-level blocked scan (Blelloch, "Prefix sums and their applications",
    1990): the n factors, padded with identities to m blocks of
    b = ceil(sqrt(n)), take their prefix products within every block at once,
    the block ends are chained from X0 into per-block carries, and one stacked
    product applies each carry to the whole blocks, a second to the partial
    last block.  That is about 2 sqrt(n) Python steps, each one stacked
    product, for every size and dtype.  The nodes are written into ``out``,
    an (n, d, d) C-ordered array, or into a new one, which is returned.
    """
    n, d = factors.shape[0], factors.shape[-1]
    b = math.isqrt(n - 1) + 1
    m, whole = -(-n // b), n // b
    blocks = np.empty((m * b, d, d), dtype=factors.dtype)
    blocks[:n] = factors
    blocks[n:] = np.eye(d)
    blocks = blocks.reshape(m, b, d, d)
    carry = np.empty((m, d, d), dtype=factors.dtype)
    carry[0] = X0
    if out is None:
        out = np.empty((n, d, d), dtype=factors.dtype)
    # nodes of the whole blocks, then of the partial last block (empty when b divides n)
    head, tail = out[:whole * b].reshape(whole, b, d, d), out[whole * b:]
    if side == "right":
        for j in range(1, b):
            blocks[:, j] = blocks[:, j - 1] @ blocks[:, j]
        for i in range(1, m):
            carry[i] = carry[i - 1] @ blocks[i - 1, -1]
        np.matmul(carry[:whole, None], blocks[:whole], out=head)
        if len(tail):
            np.matmul(carry[-1], blocks[-1, :len(tail)], out=tail)
    else:
        for j in range(1, b):
            blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
        for i in range(1, m):
            carry[i] = blocks[i - 1, -1] @ carry[i - 1]
        np.matmul(blocks[:whole], carry[:whole, None], out=head)
        if len(tail):
            np.matmul(blocks[-1, :len(tail)], carry[-1], out=tail)
    return out


def _newton_schulz_step(X, form, out=None):
    """One inverse-free step X <- X (3I - J X^T J X)/2 towards the J-orthogonal group.

    The Newton-Schulz iteration for the generalized polar factor (Higham,
    Mackey, Mackey & Tisseur, SIAM J. Matrix Anal. Appl. 25, 2004): it agrees
    with the Newton step ``(X + J X^{-T} J)/2`` to second order in the drift.
    The step is written into ``out``, which may be X itself; without it X is
    left as it is and a new stack returned.
    """
    signs = form.signs
    # J X^T J in one C-ordered product: the signs are +-1, so one factor J_ii J_jj
    # carries the bits of the two scalings
    adjoint = np.multiply(np.swapaxes(X, -1, -2), signs[:, None] * signs, order="C")
    cubic = np.matmul(X, adjoint @ X, out=adjoint)
    cubic *= -0.5
    out = np.multiply(1.5, X, out=out)
    out += cubic
    return out


def flow_matrix_ode(generators, X0, grid, side, reproject_form):
    """Integrate Xdot = L(t) X (side="left") or Xdot = X L(t) (side="right") on a group.

    ``generators`` holds L at ``grid.stage_ts``, shape (2 n_steps + 1, d, d),
    J-skew under ``reproject_form`` J, so the flow stays on the J-orthogonal
    group.  Returns the full node path, shape (n_nodes, d, d).

    The flow is linear, so an RK4 step is a matrix polynomial in the step's
    three stage samples: all step factors are built at once by stacked
    products, and the path is their running product, a two-level blocked
    scan of about 2 sqrt(n_steps) stacked products.  The factors are polished
    onto the group (one stacked ``reproject``), every node then takes one
    inverse-free Newton-Schulz step, which removes the drift the product
    accumulates, and the group residual is checked: the stack's worst entry
    of |X^T J X - J| decides, and per-node values only name a failing node.
    A node off the group by more than ``REPROJECT_TOL`` max(1, max|X_ij|^2),
    the scale of its rounding, raises, naming the node; a path that
    overflows reaches the check as inf or NaN, with no numpy warning, and is
    refused at the first node whose residual is NaN.
    Non-finite or complex generators or start values are refused.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    L = _real(generators, "flow generators")
    X0 = _real(X0, "flow start value")
    _check_stage_samples(L, grid)
    if L.shape[1:] != X0.shape or X0.ndim != 2 or X0.shape[0] != X0.shape[1]:
        raise ValueError("generators and X0 must be square matrices of equal size")
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(X0))):
        raise ValueError("flow generators or start value contain NaN or inf")
    factors = reproject(_step_factors(L, grid.h, side), reproject_form)
    out = np.empty((grid.n_nodes,) + X0.shape)
    out[0] = X0
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = _running_product(factors, X0, side, out=out[1:])
        _newton_schulz_step(nodes, reproject_form, out=nodes)
        defect = _j_gram_defect(nodes, reproject_form.signs)
        if not np.max(defect) <= REPROJECT_TOL:
            residual = np.max(defect, axis=(-2, -1)) / j_orthogonality_scale(nodes)
            worst = int(np.argmax(residual))
            if not residual[worst] <= REPROJECT_TOL:
                raise ValueError(
                    f"flow left the group at node {worst + 1} (t={grid.ts[worst + 1]:.6g}, "
                    f"residual {residual[worst]:.3e})"
                )
    return out


def integrate_vector(samples, grid):
    """Cumulative quadrature from zero of an integrand sampled at ``grid.stage_ts``.

    ``samples`` has shape (2 n_steps + 1, ...); returns the node values of
    the antiderivative, shape (n_nodes, ...).  Composite Simpson weights,
    exact for polynomial integrands up to degree 3.
    """
    f = np.asarray(samples)
    _check_stage_samples(f, grid)
    return _running_sum((grid.h / 6.0) * (f[:-1:2] + 4.0 * f[1::2] + f[2::2]))


def _running_sum(steps):
    """Node values from zero of the per-step increments ``steps`` (n_steps, ...)."""
    out = np.zeros((steps.shape[0] + 1,) + steps.shape[1:],
                   dtype=np.result_type(steps.dtype, float))
    np.cumsum(steps, axis=0, out=out[1:])
    return out


# elements per block of the interior stencil: 256 KiB of float64 per operand
_STENCIL_BLOCK = 32768


def _interior_stencil(a, scale, out):
    """out = (a[:-4] - 8 a[1:-3] + 8 a[3:-1] - a[4:]) / scale, in blocks of rows.

    The same operations in the same order as the whole-array expression, so
    the result is bit-identical; the blocks keep the operands in cache and
    need one block-sized temporary.
    """
    n = out.shape[0]
    rows = max(1, _STENCIL_BLOCK // max(1, math.prod(a.shape[1:])))
    tmp = np.empty((min(rows, n),) + out.shape[1:], dtype=out.dtype)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        o, t = out[lo:hi], tmp[:hi - lo]
        np.multiply(8.0, a[lo + 1:hi + 1], out=o)
        np.subtract(a[lo:hi], o, out=o)
        np.multiply(8.0, a[lo + 3:hi + 3], out=t)
        np.add(o, t, out=o)
        np.subtract(o, a[lo + 4:hi + 4], out=o)
        np.divide(o, scale, out=o)


def fd_derivative(samples, h):
    """Differentiate uniformly sampled data along axis 0, to fourth order.

    Five-point stencils, one-sided at the two nodes on each end.  Fewer than
    five samples are refused: a lower-order difference there is silently
    less accurate than every other derivative of the package.
    """
    a = np.asarray(samples)
    if a.shape[0] < 5:
        raise ValueError(f"need at least 5 nodes for a fourth-order derivative, got "
                         f"{a.shape[0]}; refine n_steps")
    d = np.empty_like(a, dtype=np.result_type(a.dtype, float))
    _interior_stencil(a, 12.0 * h, d[2:-2])
    d[0] = (-25.0 * a[0] + 48.0 * a[1] - 36.0 * a[2] + 16.0 * a[3] - 3.0 * a[4]) / (12.0 * h)
    d[1] = (-3.0 * a[0] - 10.0 * a[1] + 18.0 * a[2] - 6.0 * a[3] + a[4]) / (12.0 * h)
    d[-2] = (3.0 * a[-1] + 10.0 * a[-2] - 18.0 * a[-3] + 6.0 * a[-4] - a[-5]) / (12.0 * h)
    d[-1] = (25.0 * a[-1] - 48.0 * a[-2] + 36.0 * a[-3] - 16.0 * a[-4] + 3.0 * a[-5]) / (12.0 * h)
    return d


# The (1, 4, 1) Toeplitz inverse decays like R^|i-j| (de Boor, A Practical Guide to Splines,
# ch. IV; below 1e-18 past _BLOCK lags), so a solve is three block-Toeplitz products.
_R, _BLOCK = np.sqrt(3.0) - 2.0, 32
_LAGS = np.arange(_BLOCK)[:, None] - np.arange(_BLOCK)
_FILTERS = [_R ** np.abs(_LAGS + s) / (2.0 * np.sqrt(3.0)) for s in (_BLOCK, 0, -_BLOCK)]


def _solve_141(b, first, last):
    """x (m, c): x_0 = first, x_{m-1} = last, x_{i-1} + 4 x_i + x_{i+1} = b_{i-1} between."""
    (m, c), (before, same, after) = (b.shape[0] + 2, b.shape[1]), _FILTERS
    blocks = np.pad(b, ((_BLOCK + 1, _BLOCK + 1 - m % -_BLOCK), (0, 0))).reshape(-1, _BLOCK, c)
    z = (before @ blocks[:-2] + same @ blocks[1:-1] + after @ blocks[2:]).reshape(-1, c)[:m]
    # z solves the bi-infinite system; p R^i + q R^(m-1-i) sets both ends, and is
    # below 1e-36 of them past 2 _BLOCK rows
    rho, w, e0, e1 = _R ** (m - 1), min(m, 2 * _BLOCK), first - z[0], last - z[-1]
    decay = _R ** np.arange(w)[:, None] / (1.0 - rho * rho)
    z[:w] += decay * (e0 - rho * e1)
    z[m - w:] += decay[::-1] * (e1 - rho * e0)
    return z


class NotAKnotCubic:
    """Not-a-knot cubic through samples at uniform nodes, in second-derivative form:
    M_1 and M_{n-1} are the second divided differences there, M_0 = 2 M_1 - M_2,
    M_n = 2 M_{n-1} - M_{n-2}, and the M between solve the (1, 4, 1) system.

    The spline keeps its own copy of the samples and the M.  Its table of
    rows (y_k, y_{k+1}, M_k, M_{k+1}), which ``__call__`` gathers from, is
    built on the first evaluation; ``integral`` reads y and M directly."""

    def __init__(self, ts, samples):
        n = ts.size - 1
        self.ts, self.h, self._tail = ts, (ts[-1] - ts[0]) / n, samples.shape[1:]
        y = np.array(samples.reshape(n + 1, -1))
        m = np.zeros(y.shape, dtype=np.result_type(y.dtype, float))
        if n >= 2:
            d = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / self.h ** 2
            m[:] = d[0]  # three nodes: the parabola
        if n >= 3:
            m[1:n] = _solve_141(6.0 * d[1:-1], d[0], d[-1])
            m[0], m[n] = 2.0 * m[1] - m[2], 2.0 * m[n - 1] - m[n - 2]
        self._y, self._m, self._rows = y, m, None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("interpolation times contain NaN or inf")
        if self._rows is None:
            y, m = self._y, self._m
            self._rows = np.stack([y[:-1], y[1:], m[:-1], m[1:]], axis=1)
        k = np.clip((t - self.ts[0]) / self.h, 0, self.ts.size - 2).astype(int)
        width = self.ts[k + 1] - self.ts[k]  # the nodes' own spacing reproduces them
        u = (t - self.ts[k]) / width
        v, c = 1.0 - u, width * width / 6.0
        weights = np.stack([v, u, c * v * (v * v - 1.0), c * u * (u * u - 1.0)], axis=-1)
        return np.einsum("...j,...jc->...c", weights, self._rows[k]).reshape(t.shape + self._tail)

    def integral(self):
        """The spline's exact integral from the first node to every node, (n_nodes, ...).

        Simpson's rule is exact on a cubic: each piece takes it with the midpoint value
        (y_k + y_{k+1})/2 - h^2/16 (M_k + M_{k+1}), summed in ``__call__``'s order, so the
        sum rounds like ``integrate_vector`` of the spline at the stage times.
        """
        h, y, m = self.h, self._y, self._m
        y0, y1, m0, m1 = y[:-1], y[1:], m[:-1], m[1:]
        c = h * h / 16.0
        mid = 0.5 * y0 + 0.5 * y1 - c * m0 - c * m1
        return _running_sum((h / 6.0) * (y0 + 4.0 * mid + y1)).reshape(self.ts.shape + self._tail)


def dense_from_samples(ts, samples):
    """Not-a-knot cubic interpolant (``NotAKnotCubic``) through samples at uniform nodes.

    ``samples`` (len(ts), ...) may be complex; the result maps a scalar or an array t to
    shape ``t.shape + samples.shape[1:]``, extrapolates by its end pieces and has degree
    min(3, len(ts) - 1).  Refuses NaN or inf (also in t), fewer than two or non-uniform
    nodes, and samples with an empty trailing shape.
    """
    ts, samples = np.asarray(ts, dtype=float), np.asarray(samples)
    if ts.ndim != 1 or ts.size < 2 or samples.shape[:1] != ts.shape:
        raise ValueError("need one sample at each of at least two interpolation nodes")
    if samples.size == 0:
        raise ValueError(f"samples of shape {samples.shape} are empty at every node")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(samples))):
        raise ValueError("interpolation nodes or samples contain NaN or inf")
    h = (ts[-1] - ts[0]) / (ts.size - 1)
    slack = 1e-9 * h + 1e-14 * np.max(np.abs(ts))
    if not (h > 0.0 and np.all(np.abs(np.diff(ts) - h) <= slack)):
        raise ValueError("interpolation nodes must be increasing and uniformly spaced")
    return NotAKnotCubic(ts, samples)

