"""Self-test of the benchmark: its checks catch a wrong result, and its tracer is sound.

    python3 benchmarks/selftest.py

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import tracer as tracing
import workloads

FAILURES: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def corrupting(cayley):
    """cayley_from_difference, but with one coefficient of the unit changed."""
    original = cayley.cayley_from_difference

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        unit = result.unit
        g = min(unit.coeff)
        coeff = dict(unit.coeff)
        coeff[g] += Fraction(1, 7)
        result.unit = type(unit)(unit.group, coeff)
        return result

    return original, corrupted


def check_corruption_is_counted(wl, ops, l1: int, label: str) -> None:
    clean = workloads.measure(wl, [ops], 0, stop=False)
    original, corrupted = corrupting(sys.modules["cayleyunits.cayley"])
    undo = tracing.rebind(original, corrupted)
    try:
        bad = workloads.measure(wl, [ops], 0, stop=False)
    finally:
        tracing.restore(undo)
    expect(clean["failed"] == 0 and l1 > 0 and bad["failed"] == l1,
           f"{label}: a corrupted L1 coefficient fails exactly the {l1} L1 operations "
           f"of {len(ops)} (counted {bad['failed']}, {clean['failed']} before)")


def test_corruption() -> None:
    sweep = workloads.Sweep()
    sweep.setup(0)
    ops = sweep.quarters[0][:60]
    check_corruption_is_counted(sweep, ops, sum(op[0].kind == "L1" for op in ops), "sweep")
    cyc = workloads.CyclicLarge()
    cyc.setup(0)
    small = [op for op in cyc.first if op[1] <= 100]
    check_corruption_is_counted(cyc, small, sum(op[0] == "L1" for op in small), "cyclic_large")


def test_self_time_arithmetic() -> None:
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.5, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.span("algebra.is_unitary", lambda: None)
    inner = tr.span("algebra.is_unitary", lambda: leaf())

    def body():
        leaf()
        inner()

    tr.span("cayley.closed_form", body)()
    selfs = tracing.self_times(tr.spans)
    metrics = tracing.layer_metrics(tr.spans)
    # closed_form [0, 10] holds is_unitary [1, 3] and is_unitary [4, 7],
    # and the second holds is_unitary [4.5, 6.5].
    expect(selfs == [5.0, 2.0, 1.0, 2.0],
           f"self time is duration minus children on a synthetic nested call: {selfs}")
    expect(metrics["cayley.closed_form.total_s"] == 10.0
           and metrics["cayley.closed_form.self_s"] == 5.0
           and metrics["algebra.is_unitary.calls"] == 3
           and metrics["algebra.is_unitary.total_s"] == 5.0,
           "layer totals count the outermost span of each name once")


def snapshot(modules) -> dict:
    out = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, dict):
                out.update({(mod.__name__, attr, k): v for k, v in value.items()})
    return out


def test_tracer_restores() -> None:
    workloads.import_package(with_cli=True)
    mods = tracing.package_modules()
    before = snapshot(mods)
    cayley = sys.modules["cayleyunits.cayley"]
    cli = sys.modules["cayleyunits.cli"]
    element = sys.modules["cayleyunits.algebra"].AlgebraElement
    mul = element.__dict__["__mul__"]
    original_unitary = cayley.is_unitary
    tr = tracing.Tracer()
    with tr:
        rebound = (cayley.is_unitary is not original_unitary
                   and cli._CATALOG["q8"] is not before[("cayleyunits.cli", "_CATALOG", "q8")]
                   and element.__dict__["__mul__"] is not mul)
        cayley.cayley_from_difference(cli.cyclic(5), 1, 1)
        workloads.call_cli(cli, ["inverse", "--group", "Q8", "--element", "1 + 2*x"])
    names = {s[0] for s in tr.spans}
    expect(rebound, "the tracer rebinds aliases in every module, catalog dicts and __mul__")
    expect({"cayley.closed_form", "algebra.is_unitary", "algebra.mul_sparse", "sequences",
            "groups.build", "cli.main", "algebra.oracle_inverse"} <= names,
           "calls through module aliases and the CLI catalog are traced")
    after = snapshot(tracing.package_modules())
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed and element.__dict__["__mul__"] is mul,
           f"every wrapped name is restored afterwards (changed: {changed[:3]})")


def main() -> int:
    test_self_time_arithmetic()
    test_tracer_restores()
    test_corruption()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
