"""Out-of-process-code tracing for the semiroll benchmark.

The tracer rebinds public semiroll functions by name in every ``semiroll.*``
namespace that holds them (``reproject`` lives in ``integrate`` and is also
imported into ``homogeneous``; ``flow_matrix_ode`` into ``models.stiefel``,
and so on), so calls made inside the library are seen too.  Nothing in the
package is edited: wrappers are installed in the benchmark process only and
removed again by ``uninstall``.  Untraced runs never create a tracer.

Spans hold name, start, end, parent span index and operation id; they stay
in memory until ``dump``.  A span's self time is its duration minus the part
covered by its direct children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); module "" means the CartanModel class.
SPAN_TARGETS = (
    ("semiroll.integrate", "flow_matrix_ode", "integrate.flow_matrix_ode"),
    ("semiroll.integrate", "integrate_vector", "integrate.integrate_vector"),
    ("semiroll.integrate", "dense_from_samples", "integrate.dense_from_samples"),
    ("semiroll.integrate", "fd_derivative", "integrate.fd_derivative"),
    ("semiroll.homogeneous", "horizontal_lift", "homogeneous.horizontal_lift"),
    ("semiroll.homogeneous", "extrinsic_develop", "homogeneous.extrinsic_develop"),
    ("semiroll.homogeneous", "extrinsic_roll", "homogeneous.extrinsic_roll"),
    ("semiroll.homogeneous", "intrinsic_roll", "homogeneous.intrinsic_roll"),
    ("semiroll.homogeneous", "model_residual_report", "homogeneous.model_residual_report"),
    ("", "rho_path", "models.rho_path"),
    ("", "pointwise_tangent_frames", "models.pointwise_tangent_frames"),
    ("semiroll.models", "get_model", "models.get_model"),
    ("semiroll.models.stiefel", "_correction_path", "models.stiefel.correction"),
    ("semiroll.rolling", "parallel_transport_embedded", "rolling.parallel_transport_embedded"),
    ("semiroll.rolling", "tangency_residual", "rolling.tangency_residual"),
    ("semiroll.rolling", "no_slip_residual", "rolling.no_slip_residual"),
    ("semiroll.rolling", "no_twist_residuals", "rolling.no_twist_residuals"),
    ("semiroll.rolling", "rolling_point_residual", "rolling.rolling_point_residual"),
    ("semiroll.rolling", "triple_velocity_residual", "rolling.triple_velocity_residual"),
    ("semiroll.rolling", "triple_gram_residual", "rolling.triple_gram_residual"),
)
SPAN_NAMES = frozenset(name for _, _, name in SPAN_TARGETS) | {"integrate.reproject"}


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.newton_iters = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def absorb(self, spans):
        """Append spans recorded by another process under the current op id."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op])

    # -- installation ------------------------------------------------------

    def _rebind(self, module_name, attr, wrapper):
        """Replace ``module.attr`` in every semiroll namespace holding the same object."""
        orig = getattr(sys.modules[module_name], attr)
        new = wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "semiroll" or name.startswith("semiroll.")) and \
                    mod is not None and getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)
                self._undo.append((mod, attr, orig))

    def install(self):
        from semiroll import integrate
        from semiroll.homogeneous import CartanModel

        for module_name, attr, name in SPAN_TARGETS:
            if module_name:
                self._rebind(module_name, attr, lambda fn, n=name: self.span(n, fn))
            else:
                orig = CartanModel.__dict__[attr]
                setattr(CartanModel, attr, self.span(name, orig))
                self._undo.append((CartanModel, attr, orig))

        reproject_info = integrate.reproject_info
        newton = self.newton_iters

        def make_reproject(_orig):
            def reproject(X, form, tol=integrate.REPROJECT_TOL,
                          max_iter=integrate.REPROJECT_MAX_ITER):
                # reproject_info returns the matrix reproject would, plus the count
                X, iters, _ = reproject_info(X, form, tol=tol, max_iter=max_iter)
                newton.append(iters)
                return X

            return self.span("integrate.reproject", reproject)

        self._rebind("semiroll.integrate", "reproject", make_reproject)
        self._rebind("semiroll.linalg", "j_orthogonality_residual",
                     lambda fn: self.counter("linalg.j_orthogonality_residual", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{span name: (calls, total self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
