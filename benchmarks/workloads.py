"""The benchmark's workloads, run one at a time in a child process.

    python3 benchmarks/workloads.py --workload sweep --seed 0 --seconds 15 --trace 0
    python3 benchmarks/workloads.py --workload sweep --seed 0 --setup-only

Each workload is a closed loop with one caller: the next operation
starts when the previous one returns. Operations come in rounds of a
fixed composition, and a run always ends on a round boundary, so runs
with different seeds time the same mix of operation kinds and sizes;
the seed draws only the inputs within that mix. Every result is
checked right after its operation, outside the timed region, with the
independent arithmetic in ``exact.py``.

The child prints one JSON line. A run reports ``setup_s`` (import of
the package plus the workload's set-up), end-to-end metrics from the
untraced loop, and with ``--trace 1`` the per-layer metrics of a
traced pass over a fixed batch of rounds, after an untraced pass over
the same batch for the overhead ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import exact
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
WALL_CAP_S = 120.0  # stop early rather than overrun the run's time limit
# The CPU of a shared host alternates between two speeds about 1.7x apart,
# and how much of a run falls into the fast one varies from run to run.
# The slow speed shows up in nearly every few seconds, so each operation
# is timed in three passes over its round, seconds apart, and its latency
# is the slowest of the three.
PASSES = 3


def import_package(with_cli: bool):
    """Import cayleyunits from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cayleyunits" / "__init__.py").is_file():
        raise SystemExit(f"no cayleyunits sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("cayleyunits")
    if Path(pkg.__file__).resolve().parent != (src / "cayleyunits").resolve():
        raise SystemExit(f"cayleyunits was imported from {pkg.__file__}, not {src}")
    if with_cli:
        importlib.import_module("cayleyunits.cli")
    return pkg


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cyclic_word(n: int, gen: str):
    """Evaluate ``gen^k`` words in the cyclic group of order n, as residues."""

    def word(text: str) -> int:
        total = 0
        for name, exp in exact.word_atoms(text):
            if name != gen:
                raise ValueError(f"unexpected generator {name!r}")
            total += exp
        return total % n

    return word


class Sweep:
    """Criterion 3's grid: every skew generator of the catalog, closed form vs oracle."""

    name = "sweep"
    QUARTERS = 4
    trace_rounds = QUARTERS  # the whole grid
    Q_L1 = (F(1), F(-1), F(2), F(1, 2), F(-3))
    Q_L2 = (F(1), F(2), F(1, 2), F(-3))
    Q_POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(-3), F(1, 3), F(-1, 3))

    def setup(self, seed: int) -> None:
        cu = self.cu = import_package(with_cli=False)
        rng = random.Random(seed)
        configs = []
        for n in range(3, 31):
            group = cu.cyclic(n)
            configs.append((group, None))
            if n % 2 == 0:
                configs.append((group, {"x": -1}))
        s3 = cu.symmetric3()
        configs += [(s3, None), (s3, {"x": 1, "y": -1})]
        for make in (cu.quaternion8, cu.dihedral4):
            group = make()
            configs.append((group, None))
            configs += [(group, {"x": sx, "y": sy}) for sx, sy in ((1, -1), (-1, 1), (-1, -1))]
        ops = []
        for group, signs in configs:
            orientation = None if signs is None else cu.orientation_from_generators(group, signs)
            for sg in cu.skew_basis(group, orientation):
                if sg.kind == "L3":
                    qs = (F(1),)
                elif seed == 0:
                    qs = self.Q_L1 if sg.kind == "L1" else self.Q_L2
                else:
                    qs = rng.sample(self.Q_POOL, 5 if sg.kind == "L1" else 4)
                ops += [(sg, q, orientation, signs) for q in qs]
        # A round is a quarter of the grid, dealt from the grid in its
        # order of groups, so that every quarter has the same mix.
        self.quarters = [ops[k::self.QUARTERS] for k in range(self.QUARTERS)]
        for quarter in self.quarters:
            rng.shuffle(quarter)
        self.models: dict = {}

    def rounds(self):
        while True:
            yield from self.quarters

    def close(self) -> None:
        pass

    def run(self, op):
        sg, q, orientation, _ = op
        closed = self.cu.cayley_from_generator(sg, q, orientation)
        generic = self.cu.cayley_transform(self.cu.materialize(sg, q), orientation)
        return closed, generic

    def _model(self, group):
        """Own model of the group and the map from library indices to it."""
        if group.name not in self.models:
            if group.name.startswith("C"):
                model = exact.cyclic_model(group.order)
            else:
                model = {"S3": exact.symmetric3_model, "Q8": exact.quaternion8_model,
                         "D4": exact.dihedral4_model}[group.name]()
            index = [model.word(w) for w in group.names]
            if sorted(index) != list(range(model.order)):
                raise ValueError(f"the element names of {group.name} are not a bijection")
            self.models[group.name] = (model, index)
        return self.models[group.name]

    def _signs(self, model, signs: dict) -> list[int]:
        """The orientation on the own model, as the product of generator signs."""
        key = (model.name, tuple(sorted(signs.items())))
        if key not in self.models:
            out = []
            for word in model.names():
                s = 1
                for name, exp in exact.word_atoms(word):
                    s *= signs[name] ** (exp % 2)
                out.append(s)
            self.models[key] = out
        return self.models[key]

    def check(self, op, result) -> bool:
        sg, q, _, signs = op
        closed, generic = result
        model, index = self._model(sg.group)

        def own(a):
            return {index[g]: c for g, c in a.coeff.items()}

        e = model.word(sg.group.names[sg.base])
        ei = model.inv[e]
        beta = {"L1": {e: q, ei: -q}, "L2": {e: q}, "L3": {e: F(1), ei: F(1)}}[sg.kind]
        one_plus = exact.add(exact.one(), beta)
        if closed is None or generic is None:
            return closed is None and generic is None and not exact.full_rank_mod_p(
                one_plus, model.order, model.mul)
        unit, inv = own(closed.unit), own(closed.inverse_of_one_plus_beta)
        if own(closed.beta) != beta or own(generic.beta) != beta:
            return False
        if own(generic.unit) != unit or own(generic.inverse_of_one_plus_beta) != inv:
            return False
        sign = None if signs is None else self._signs(model, signs).__getitem__
        return (
            exact.conv(one_plus, inv, model.mul) == exact.one()
            and exact.conv(unit, one_plus, model.mul) == exact.add(exact.one(), beta, -1)
            and exact.conv(unit, exact.star(unit, model.inv.__getitem__, sign), model.mul)
            == exact.one()
        )


class CyclicLarge:
    """CLI ``table`` (L3) and ``unit --kind L1`` on cyclic groups of even order 64..384."""

    name = "cyclic_large"
    trace_rounds = 1
    STRATA = 108
    LO, HI = 64, 384
    # Stratum i takes entry i mod 6, so every round has the same mix and
    # each kind meets the whole range of sizes; a sixth of the operations
    # are table refusals.
    PATTERN = (("table", "invertible"), ("L1", "1"), ("L1", "2"),
               ("table", "refused"), ("L1", "1/2"), ("L1", "-3"))

    def setup(self, seed: int) -> None:
        self.cli = import_package(with_cli=True).cli
        self.rng = random.Random(seed)
        self.first = self._round()

    def _order(self, t: float) -> int:
        # Inverse distribution function of a density proportional to
        # n^-4: an operation costs n^2 or more, so the large orders are
        # few but still take a good share of the time.
        a, b = self.LO ** -3, self.HI ** -3
        return 2 * round((a - t * (a - b)) ** (-1 / 3) / 2)

    def _round(self) -> list:
        # The orders sit at evenly spaced quantiles, from 64 to 384, each
        # moved by the seed by at most a tenth of the gap to its neighbours:
        # the dearest operations cost a hundred times the cheapest, so wider
        # moves would let the seed move the mean.
        ops = []
        for i in range(self.STRATA):
            t = (i + self.rng.uniform(-0.1, 0.1)) / (self.STRATA - 1)
            n = self._order(min(max(t, 0.0), 1.0))
            kind, arg = self.PATTERN[i % len(self.PATTERN)]
            if kind == "table":
                if arg == "refused":
                    n = min(max(6 * round(n / 6), 66), self.HI)
                elif n % 6 == 0:
                    n = n + 2 if n + 2 <= self.HI else n - 2
                ops.append((kind, n, None, ["table", "--orders", str(n)]))
            else:
                ops.append((kind, n, F(arg), ["unit", "--group", f"C{n}", "--kind", "L1",
                                              "--element=x", f"--q={arg}"]))
        self.rng.shuffle(ops)
        return ops

    def close(self) -> None:
        pass

    def rounds(self):
        yield self.first
        while True:
            yield self._round()

    def run(self, op):
        return call_cli(self.cli, op[3])

    def check(self, op, result) -> bool:
        kind, n, q, _ = op
        rc, out = result
        if rc != 0:
            return False

        def mul(g, h):
            return (g + h) % n

        one = exact.one()
        if kind == "table":
            rows = exact.table_rows(out)
            if [m for m, _ in rows] != [n]:
                return False
            text = rows[0][1]
            if n % 6 == 0:
                return text == "not invertible"
            beta = {1: F(1), n - 1: F(1)}
            unit = exact.parse_terms(text, cyclic_word(n, "z"))
            inv = exact.scale(exact.add(one, unit), F(1, 2))
        else:
            f = exact.fields(out)
            word = cyclic_word(n, "x")
            beta = {1: q, n - 1: -q}
            if f.get("group") != f"C{n}" or exact.parse_terms(f["beta"], word) != beta:
                return False
            unit = exact.parse_terms(f["unit"], word)
            inv = exact.parse_terms(f["inverse of 1 + beta"], word)
        one_plus = exact.add(one, beta)
        return (exact.conv(one_plus, inv, mul) == one
                and exact.conv(unit, one_plus, mul) == exact.add(one, beta, -1))


class CliDense:
    """CLI ``inverse`` and ``unit --kind generic`` on random dense elements."""

    name = "cli_dense"
    trace_rounds = 1
    INVERSE_PER_GROUP = 7  # with GENERIC_PER_GROUP: 70% inverse, 30% generic
    GENERIC_PER_GROUP = 3

    def setup(self, seed: int) -> None:
        self.cli = import_package(with_cli=True).cli
        self.rng = random.Random(seed)
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        table_group = exact.s3_times_c4_model()
        path = self.tmp / f"{table_group.name}.txt"
        path.write_text(exact.table_file_text(table_group))
        self.groups = [
            (f"C{n}", exact.cyclic_model(n)) for n in (24, 30, 48)
        ] + [
            ("Q8", exact.quaternion8_model()),
            ("D4", exact.dihedral4_model()),
            (str(path), table_group),
        ]
        self.names = {arg: model.names() for arg, model in self.groups}
        self.first = self._round()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _dense(self, order: int) -> dict:
        """60% of the group elements, with coefficients a/b, 0 < |a| <= 4, b <= 3.

        The support size is fixed, so that the cost of the solve varies
        less from one seed to the next.
        """
        support = self.rng.sample(range(order), round(0.6 * order))
        return {g: F(self.rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), self.rng.randint(1, 3))
                for g in support}

    def _round(self) -> list:
        ops = []
        for arg, model in self.groups:
            names = self.names[arg]
            for _ in range(self.INVERSE_PER_GROUP):
                a = self._dense(model.order)
                ops.append(("inverse", model, a,
                            ["inverse", "--group", arg, f"--element={exact.render(a, names)}"]))
            for _ in range(self.GENERIC_PER_GROUP):
                r = self._dense(model.order)
                s = exact.add(r, exact.star(r, model.inv.__getitem__), -1)
                ops.append(("generic", model, s,
                            ["unit", "--group", arg, "--kind", "generic",
                             f"--element={exact.render(s, names)}", "--q=1"]))
        self.rng.shuffle(ops)
        return ops

    def rounds(self):
        yield self.first
        while True:
            yield self._round()

    def run(self, op):
        return call_cli(self.cli, op[3])

    def check(self, op, result) -> bool:
        kind, model, a, _ = op
        rc, out = result
        one = exact.one()
        target = a if kind == "inverse" else exact.add(one, a)
        if rc == 2:
            # A refusal stands unless the element is provably invertible.
            return not exact.full_rank_mod_p(target, model.order, model.mul)
        if rc != 0:
            return False
        f = exact.fields(out)
        if f.get("group") != model.name:
            return False
        if kind == "inverse":
            if exact.parse_terms(f["element"], model.word) != a:
                return False
            inv = exact.parse_terms(f["inverse"], model.word)
            return exact.conv(a, inv, model.mul) == one
        if exact.parse_terms(f["beta"], model.word) != a:
            return False
        inv = exact.parse_terms(f["inverse of 1 + beta"], model.word)
        unit = exact.parse_terms(f["unit"], model.word)
        return (exact.conv(target, inv, model.mul) == one
                and exact.conv(unit, target, model.mul) == exact.add(one, a, -1))


WORKLOADS = {w.name: w for w in (Sweep, CyclicLarge, CliDense)}


def measure(wl, rounds, seconds: float, stop: bool, passes: int = 1, trace=None) -> dict:
    """Run rounds of operations, checking each result after it is timed.

    Each round runs ``passes`` times over, and an operation's latency is
    the slowest of its timings. With ``stop`` the loop ends at the first
    round boundary after ``seconds`` of timed work and at least MIN_OPS
    distinct operations; otherwise it runs every round given.
    """
    latencies: list[float] = []
    executed = failed = 0
    timed = 0.0
    first_failure = None
    wall0 = time.perf_counter()
    over_time = False
    for ops in rounds:
        slowest = [0.0] * len(ops)
        for _ in range(passes):
            for i, op in enumerate(ops):
                over_time = time.perf_counter() - wall0 > WALL_CAP_S
                if over_time:
                    break
                error = None
                t0 = time.perf_counter()
                try:
                    result = trace.run_op(executed, wl.run, op) if trace else wl.run(op)
                except Exception as exc:  # an operation that raises counts as failed
                    error = exc
                t = time.perf_counter() - t0
                slowest[i] = max(slowest[i], t)
                timed += t
                executed += 1
                if error is None:
                    try:
                        ok = wl.check(op, result)
                    except Exception as exc:  # an unreadable output counts as failed
                        ok, error = False, exc
                else:
                    ok = False
                if not ok:
                    failed += 1
                    if first_failure is None:
                        shown = op[-1] if isinstance(op[-1], list) else op[:2]
                        first_failure = f"{shown}: {error!r}"
        latencies += [t for t in slowest if t]
        if over_time:
            break
        if stop and timed >= seconds and len(latencies) >= MIN_OPS:
            break
    return {"latencies": latencies, "executed": executed, "timed": timed,
            "failed": failed, "first_failure": first_failure}


def trace_batch(wl) -> list:
    return [ops for _, ops in zip(range(wl.trace_rounds), wl.rounds())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            plain = measure(wl, trace_batch(wl), 0, stop=False)
            # A second instance repeats the set-up under the tracer, so
            # the set-up's group builds are traced, and draws the same batch.
            wl, first = WORKLOADS[args.workload](), wl
            first.close()
            tr = tracing.Tracer()
            with tr:
                tr.run_op(-1, wl.setup, args.seed, name=tracing.SETUP)
                traced = measure(wl, trace_batch(wl), 0, stop=False, trace=tr)
            OUT.mkdir(exist_ok=True)
            tr.dump(OUT / f"spans-{wl.name}-{args.seed}.json")
            metrics = tracing.layer_metrics(tr.spans)
            metrics["trace.overhead_ratio"] = traced["timed"] / plain["timed"]
            runs = (plain, traced)
        else:
            run = measure(wl, wl.rounds(), args.seconds, stop=True, passes=PASSES)
            lat = run["latencies"]
            metrics = {
                "ops_per_s": len(lat) / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            }
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            runs = (run,)
    finally:
        wl.close()
    attempted = sum(r["executed"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "first_failure": next((r["first_failure"] for r in runs if r["first_failure"]), None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
