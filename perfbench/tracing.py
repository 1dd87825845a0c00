"""Spans around divdiff's layers, recorded from outside the package.

Installing the tracer wraps each public function below and rebinds the
wrapper in every ``divdiff`` module that holds the original, because
modules import these functions by name (``extremal.solve_lp``,
``interpolation.newton_coefficients``, the ``cli`` imports): patching
only the defining module would miss those calls.  Methods are wrapped on
their class.  Nothing under ``src/`` changes; ``uninstall`` restores
every binding.

A span is (layer, start ns, end ns, span id, parent span id, op id).
Spans stay in memory until the run ends.  A layer's self time is its
span duration minus the time covered by its child spans, kept per op so
the caller can scale it to reference speed.
"""

import json
import sys
import time
from array import array

FUNCTIONS = (  # (layer, module, attribute)
    ("cli.main", "divdiff.cli", "main"),
    ("funcs.parse_funcspec", "divdiff.funcs", "parse_funcspec"),
    ("differences.direct", "divdiff.differences", "divided_difference_direct"),
    ("differences.newton", "divdiff.differences", "newton_coefficients"),
    ("differences.finite_difference", "divdiff.differences", "finite_difference"),
    ("interpolation.lagrange", "divdiff.interpolation", "lagrange_equispaced"),
    ("cascade.polynomial_cascade", "divdiff.cascade", "polynomial_cascade"),
    ("simplex.solve_lp", "divdiff.simplex", "solve_lp"),
    ("extremal.min_lipschitz", "divdiff.extremal", "min_lipschitz_unit_norm"),
    ("linalg.kernel_basis", "divdiff.linalg", "kernel_basis"),
    ("linalg.integer_echelon", "divdiff.linalg", "integer_echelon"),
    ("constraints.build", "divdiff.constraints", "build_constraint_system"),
    ("constraints.nullspace", "divdiff.constraints", "nullspace"),
    ("report.render", "divdiff.report", "render_json"),
    ("report.render", "divdiff.report", "render_csv"),
    ("rational.decimal_string", "divdiff.rational", "decimal_string"),
    ("probes.averaging_probe", "divdiff.probes", "averaging_probe"),
    ("probes.telescope", "divdiff.probes", "telescope_shift_identity"),
    ("probes.walkthrough", "divdiff.probes", "proof_walkthrough"),
)
METHODS = (  # (layer, module, class, method)
    ("poly.mul", "divdiff.poly", "Polynomial", "__mul__"),
    ("poly.evaluate", "divdiff.poly", "Polynomial", "evaluate"),
    ("funcs.evaluate", "divdiff.funcs", "FuncSpec", "evaluate"),
)
LAYERS = tuple(dict.fromkeys(name for name, *_ in FUNCTIONS + METHODS))
SPAN_FIELDS = ("layer", "start_ns", "end_ns", "span", "parent", "op")


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.op_self_ns = [0] * len(LAYERS)  # self time within the current op
        self.spans = array("q")
        self.stack: list = []
        self.next_span = 0
        self.op_id = -1
        self.max_bits = 0
        self.report_bytes = 0
        self.lps = 0
        self.useful_lps = 0
        self.grid_functions = 0
        self._incumbent = None
        self._restore: list = []

    # -- counters fed by result hooks --

    def _fraction_bits(self, result) -> None:
        self.max_bits = max(self.max_bits, _bits(result))

    def _tuple_bits(self, result) -> None:
        if result:
            self.max_bits = max(self.max_bits, max(map(_bits, result)))

    def _render_bytes(self, result) -> None:
        self.report_bytes += len(result.encode("utf-8"))

    def _lp_outcome(self, result) -> None:
        # An LP is useful when it improves the incumbent of its minlip call.
        self.lps += 1
        if result.status == "optimal" and (self._incumbent is None or result.value < self._incumbent):
            self.useful_lps += 1
            self._incumbent = result.value

    def _new_minlip(self) -> None:
        self._incumbent = None

    # -- wrapping --

    def _wrap(self, layer: str, fn, before=None, after=None):
        i = self.index[layer]
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.op_self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span]  # [time covered by child spans, span id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[i] += duration - frame[0]
                calls[i] += 1
                if stack:
                    stack[-1][0] += duration
                spans.extend((i, start, end, span, parent, tracer.op_id))
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, layer: str):
        if layer in ("differences.direct", "differences.finite_difference"):
            return None, self._fraction_bits
        if layer == "differences.newton":
            return None, self._tuple_bits
        if layer == "report.render":
            return None, self._render_bytes
        if layer == "simplex.solve_lp":
            return None, self._lp_outcome
        if layer == "extremal.min_lipschitz":
            return self._new_minlip, None
        return None, None

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "divdiff" or name.startswith("divdiff."))]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original, *self._hooks(layer))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        for layer, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(layer, original))
        grid_cls = sys.modules["divdiff.funcs"].GridFunction
        post_init = grid_cls.__dict__["__post_init__"]

        def counted_post_init(grid_self):
            self.grid_functions += 1
            post_init(grid_self)

        self._restore.append((grid_cls, "__post_init__", post_init))
        grid_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def take_op(self) -> list:
        """Self time per layer since the last call, in ns; resets the tally."""
        taken = list(self.op_self_ns)
        self.op_self_ns[:] = [0] * len(LAYERS)
        return taken

    def span_count(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path) -> None:
        """Header line with the layer names and field order, then int64 rows."""
        header = {"layers": list(LAYERS), "fields": list(SPAN_FIELDS), "spans": self.span_count()}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(fh)
