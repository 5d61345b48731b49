"""Spans around the public calls into cayleyunits, recorded from outside.

The tracer replaces each traced function object by a wrapper under
every name it is bound to in the loaded ``cayleyunits`` modules: the
package and its modules import functions such as ``is_unitary`` by
name, so patching the defining module alone would miss those calls.
``AlgebraElement.__mul__`` is wrapped on the class. Spans (name, start,
end, parent, operation id, value) are kept in memory; ``layer_metrics``
turns them into per-layer counts and self times afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "cayleyunits"


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> list[tuple[object, object, object]]:
    """Bind ``replacement`` wherever ``original`` is bound in the package.

    That covers module attributes and the values of module-level dicts
    (the CLI dispatches catalog groups through one). Returns the
    (owner, key, original) triples that ``restore`` puts back.
    """
    undo = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement
                        undo.append((value, key, original))
    return undo


def restore(undo) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def _max_bits(result) -> int:
    values = result if isinstance(result, list) else [] if result is None else [result]
    bits = 0
    for v in values:
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _payload_bytes(result) -> int:
    if isinstance(result, str):
        return len(result)
    return sum(len(c["elem"]) + len(c["value"]) for c in result["coeffs"])


def _refused(args, result) -> int:
    return int(result is None)


# (module, function, span name, value of the span from (args, result)).
TARGETS = [
    ("groups", "cyclic", "groups.build", None),
    ("groups", "dihedral4", "groups.build", None),
    ("groups", "quaternion8", "groups.build", None),
    ("groups", "symmetric3", "groups.build", None),
    ("groups", "orientation_from_generators", "groups.build", None),
    ("groups", "load_group_table", "groups.load_group_table", None),
    ("algebra", "is_unitary", "algebra.is_unitary", None),
    ("algebra", "regular_representation", "algebra.regular_representation", None),
    ("algebra", "solve_linear", "algebra.solve_linear", lambda a, r: len(a[0]) ** 3),
    ("algebra", "oracle_inverse", "algebra.oracle_inverse", lambda a, r: int(r is not None)),
    ("algebra", "format_element", "algebra.format", lambda a, r: _payload_bytes(r)),
    ("algebra", "element_to_json", "algebra.format", lambda a, r: _payload_bytes(r)),
    ("cayley", "cayley_from_difference", "cayley.closed_form", _refused),
    ("cayley", "cayley_from_self_inverse", "cayley.closed_form", _refused),
    ("cayley", "cayley_from_sum", "cayley.closed_form", _refused),
    ("cayley", "cayley_transform", "cayley.transform", _refused),
    ("parsing", "parse_element", "parsing.parse_element", lambda a, r: len(a[0])),
    ("cli", "main", "cli.main", None),
]
SEQUENCE_FUNCTIONS = (
    "fibonacci", "fibonacci_like", "fibonacci_like_closed", "inverse_coeffs_difference",
    "inverse_coeffs_fibonacci", "inverse_coeffs_sum", "companion_sequence",
    "inverse_coeff_sum_closed", "unit_coeffs_difference", "unit_coeffs_sum",
)
TARGETS += [("sequences", f, "sequences", lambda a, r: _max_bits(r)) for f in SEQUENCE_FUNCTIONS]

OP = "bench.op"
SETUP = "bench.setup"


class Tracer:
    """Records nested spans; install() wraps the targets, uninstall() undoes it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self._undo: list = []

    def span(self, name: str, fn, value=None):
        """A wrapper of ``fn`` that records one span per call."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                v = value(args, result) if ok and value is not None else 0
                spans[idx] = (name, start, end, parent, self.op_id, v)

        return wrapper

    def _mul_wrapper(self, fn):
        sparse = self.span("algebra.mul_sparse", fn, lambda a, r: len(a[0].coeff) * len(a[1].coeff))
        dense = self.span("algebra.mul_dense", fn, lambda a, r: len(a[0].coeff) * len(a[1].coeff))
        element_type = fn.__globals__["AlgebraElement"]

        @functools.wraps(fn)
        def wrapper(self_, other):
            if not isinstance(other, element_type):
                return fn(self_, other)
            if min(len(self_.coeff), len(other.coeff)) <= 3:
                return sparse(self_, other)
            return dense(self_, other)

        return wrapper

    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for mod, fname, name, value in TARGETS:
            if mod not in mods:  # a module the workload never imported
                continue
            fn = getattr(mods[mod], fname)
            self._undo += rebind(fn, self.span(name, fn, value))
        cls = mods["algebra"].AlgebraElement
        original = cls.__dict__["__mul__"]
        cls.__mul__ = self._mul_wrapper(original)
        self._undo.append((cls, "__mul__", original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def run_op(self, op_id: int, fn, *args, name: str = OP):
        """Run one benchmark operation (or the set-up, as op -1) under a root span."""
        self.op_id = op_id
        return self.span(name, fn)(*args)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "value"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span are disjoint and
    cover the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _outermost_total(spans, name) -> float:
    total = 0.0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


# The metrics of each layer. Besides calls, self time and total time, a
# suffix names the span value that is summed (or, for bits, maximised).
LAYERS = {
    "algebra.mul_sparse": ("calls", "self_s", "term_products"),
    "algebra.mul_dense": ("calls", "self_s", "term_products"),
    "algebra.is_unitary": ("calls", "total_s"),
    "algebra.solve_linear": ("calls", "self_s", "dim_cubed"),
    "algebra.regular_representation": ("self_s",),
    "algebra.oracle_inverse": ("calls", "self_s", "invertible_ratio"),
    "groups.build": ("calls", "self_s"),
    "groups.load_group_table": ("calls", "self_s"),
    "sequences": ("calls", "self_s", "max_coeff_bits"),
    "cayley.closed_form": ("calls", "self_s", "total_s", "refused"),
    "cayley.transform": ("calls", "total_s", "refused"),
    "parsing.parse_element": ("self_s", "chars"),
    "algebra.format": ("self_s", "bytes"),
    "cli.main": ("calls", "self_s"),
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, self times and totals from recorded spans."""
    rows: dict[str, list[tuple[float, int]]] = {}
    for s, st in zip(spans, self_times(spans)):
        rows.setdefault(s[0], []).append((st, s[5]))
    out: dict[str, float] = {}
    for layer, suffixes in LAYERS.items():
        own = rows.get(layer, [])
        values = [v for _, v in own]
        for suffix in suffixes:
            if suffix == "calls":
                x = len(own)
            elif suffix == "self_s":
                x = sum(st for st, _ in own)
            elif suffix == "total_s":
                x = _outermost_total(spans, layer)
            elif suffix == "max_coeff_bits":
                x = max(values, default=0)
            elif suffix == "invertible_ratio":
                x = sum(values) / len(own) if own else 0.0
            else:
                x = sum(values)
            out[f"{layer}.{suffix}"] = x
    out["trace.wall_s"] = _outermost_total(spans, OP)
    return out
