"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed, sets up the program
state it needs (excluded from timing), and yields *batches* of operations:

- generators: one batch is one round.  For each fixture, one element of the
  fixed subfield is drawn from a per-fixture seeded stream and tested with
  `descent.is_generator` against every structure's descended algebra.  One
  operation is one `is_generator` call.
- freeness: one batch is one pass.  `integral.associated_order` followed by
  `integral.freeness_search` at the CLI default bound 3 for every structure
  and ideal, plus `integral.freeness_certificate` on the classical pair of
  each certificate ideal.  The seed only orders the operations.
- suite: one batch is one pass of `cli.main(["--json", "--seed", S, "suite",
  fx])` over the workload's fixtures, in seeded order.

Program functions are always looked up through their module at call time, so
that a traced run reaches the tracer's wrappers and an untraced run reaches
the original functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

from probe import median
from tracing import box_candidates

BOUND = 3  # the CLI default freeness bound

GENERATOR_FIXTURES = {"full": ("s3sextic", "c4quartic", "v4biquad"),
                      "tiny": ("c4quartic", "v4biquad")}
# (fixture, ideals whose every structure is searched, ideals certified)
FREENESS_PLAN = {"full": (("s3sextic", ("OE", "OL"), ("OE", "OL")),
                          ("v4biquad", ("OL",), ())),
                 "tiny": (("v4biquad", ("OL",), ("OL",)),)}
# s3sextic is left out: one `suite s3sextic` takes about 200 s, and its phases
# are covered by the generators and freeness workloads.
SUITE_FIXTURES = {"full": ("c4quartic", "v4biquad", "qcbrt2", "metacyclic21"),
                  "tiny": ("qi", "qzeta3")}
SUITE_EXIT_OK = (0, 3)  # PASS, or PASS with UNKNOWN bounded searches
COORD_RANGE = (-9, 9)   # the range `Subfield.random_element` draws from


@dataclass
class Op:
    """One timed operation: `fn(*args)`; `check` turns its value into an
    observation for the expected-value comparison, or raises `CheckFailed`."""
    label: str
    kind: str
    fn: object
    args: tuple
    check: object = None
    start: float = 0.0
    seconds: float = 0.0           # wall time
    ref_seconds: float = 0.0       # at reference speed, see probe.py
    value: object = None
    error: str | None = None
    observation: object = None


@dataclass
class Batch:
    ops: list[Op]
    post: object = None            # cross-operation check over the batch


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _load(hg, name):
    fx = hg.fixtures.load_bundled(name)
    fx.coset_space()
    fx.structures()
    return fx


def _classical_pair(hg, fx):
    """Indices of the classical structure and its opposite, chosen as the CLI
    chooses them."""
    space = fx.coset_space()
    structs = fx.structures()
    rho = hg.perm.right_translation_subgroup(space)
    index = next(i for i, n in enumerate(structs) if n == rho)
    opp = hg.perm.opposite(structs[index], space)
    return index, next(i for i, n in enumerate(structs) if n == opp)


# -- generators ---------------------------------------------------------------

class Generators:
    name = "generators"

    def __init__(self, hg, size):
        self.hg = hg
        self.names = GENERATOR_FIXTURES[size]

    def setup(self):
        hg = self.hg
        self.fx = {}
        self.pairs = {}
        for name in self.names:
            fx = _load(hg, name)
            for i in range(len(fx.structures())):
                fx.algebra(i)
            space = fx.coset_space()
            structs = fx.structures()
            self.pairs[name] = [
                structs.index(hg.perm.opposite(n, space)) for n in structs]
            self.fx[name] = fx

    def batches(self, seed):
        streams = {name: random.Random(f"{seed}:{name}") for name in self.names}
        while True:
            ops = []
            for name in self.names:
                fx = self.fx[name]
                sub = fx.subfield()
                coords = [streams[name].randint(*COORD_RANGE)
                          for _ in range(sub.dim)]
                x = sub.from_coords(coords)
                for i in range(len(fx.structures())):
                    ops.append(Op(f"{name}[{i}]", name, self._test,
                                  (fx, i, x), check=bool))
            yield Batch(ops, post=self._pairs_agree)

    def _test(self, fx, i, x):
        return self.hg.descent.is_generator(fx.algebra(i), x)

    def _pairs_agree(self, batch):
        """A generator for one structure generates for its opposite too."""
        at = 0
        for name in self.names:
            pairs = self.pairs[name]
            ops = batch.ops[at: at + len(pairs)]
            at += len(pairs)
            for i, j in enumerate(pairs):
                a, b = ops[i], ops[j]
                if a.error is None and b.error is None and a.value != b.value:
                    a.error = (f"verdict differs from opposite structure {j}: "
                               f"{a.value} against {b.value}")

    def observations(self, batches):
        """Per fixture, the verdict vector of each round."""
        out = {name: [] for name in self.names}
        for batch in batches:
            at = 0
            for name in self.names:
                count = len(self.pairs[name])
                out[name].append([int(bool(op.observation))
                                  for op in batch.ops[at: at + count]])
                at += count
        return out

    @staticmethod
    def compare(observed, expected):
        mismatches = []
        for name, rounds in observed.items():
            want = expected.get(name, [])
            for r, (got, exp) in enumerate(zip(rounds, want)):
                if got != exp:
                    mismatches.append(
                        f"generators {name} round {r}: verdicts {got}, "
                        f"expected {exp}")
        return mismatches

    def detail(self, ops):
        times = [op.ref_seconds for op in ops]
        return {"gen_tests_per_s": (len(times) / sum(times), "1/s"),
                "gen_test_ms.p50": (1000 * median(times), "ms"),
                "gen_test_ms.p90": (1000 * p90(times), "ms"),
                "gen_test_samples": (len(times), "count")}


# -- freeness -----------------------------------------------------------------

class Freeness:
    name = "freeness"

    def __init__(self, hg, size):
        self.hg = hg
        self.plan = FREENESS_PLAN[size]

    def setup(self):
        hg = self.hg
        self.fx = {}
        self.classical = {}
        for name, searched, certified in self.plan:
            fx = _load(hg, name)
            for i in range(len(fx.structures())):
                fx.algebra(i)
            for ideal in set(searched) | set(certified):
                fx.ideal(ideal)
            if certified:
                self.classical[name] = _classical_pair(hg, fx)
            self.fx[name] = fx

    def _ops(self):
        ops = []
        for name, searched, certified in self.plan:
            fx = self.fx[name]
            for ideal in searched:
                for i in range(len(fx.structures())):
                    ops.append(Op(f"{name}:search[{i},{ideal}]", "search",
                                  self._order_and_search, (fx, i, ideal),
                                  check=self._check_search))
            for ideal in certified:
                main, partner = self.classical[name]
                ops.append(Op(f"{name}:certificate[{main},{partner},{ideal}]",
                              "certificate", self._certificate,
                              (fx, main, partner, ideal),
                              check=self._check_certificate))
        return ops

    def batches(self, seed):
        rng = random.Random(f"{seed}:freeness")
        while True:
            ops = self._ops()
            rng.shuffle(ops)
            yield Batch(ops)

    def _order_and_search(self, fx, i, ideal_name):
        integral = self.hg.integral
        ideal = fx.ideal(ideal_name)
        order = integral.associated_order(fx.algebra(i), ideal)
        return order, integral.freeness_search(order, ideal, BOUND)

    def _certificate(self, fx, main, partner, ideal_name):
        return self.hg.integral.freeness_certificate(
            fx.algebra(main), fx.algebra(partner), fx.ideal(ideal_name), BOUND)

    def _check_search(self, value):
        order, result = value
        if result.free and not self.hg.integral.is_free_witness(
                order, list(result.witness_ideal_coords)):
            raise CheckFailed("FREE witness fails is_free_witness")
        return _result_obs(result)

    @staticmethod
    def _check_certificate(cert):
        if not cert.consistent:
            raise CheckFailed("certificate is inconsistent")
        return {"main": _result_obs(cert.verdict_main),
                "partner": _result_obs(cert.verdict_partner),
                "witness_transfers": cert.witness_transfers,
                "transferred_lattice_matches": cert.transferred_lattice_matches,
                "commuting_transport_holds": cert.commuting_transport_holds}

    @staticmethod
    def observations(batches):
        out = {}
        for batch in batches:
            for op in batch.ops:
                out.setdefault(op.label, op.observation)
        return out

    @staticmethod
    def compare(observed, expected):
        return [f"freeness {label}: {got}, expected {expected.get(label)}"
                for label, got in sorted(observed.items())
                if got != expected.get(label)]

    def detail(self, ops):
        searches = [op for op in ops if op.kind == "search"]
        search_s = sum(op.ref_seconds for op in searches)
        candidates = sum(
            box_candidates(op.value[1], len(op.value[0].ideal_action_matrices),
                           BOUND)
            for op in searches if op.error is None)
        return {"freeness_wall_s": (search_s, "s"),
                "box_candidates_per_s": (candidates / search_s, "1/s"),
                "box_candidates": (candidates, "count"),
                "certificate_s": (sum(op.ref_seconds for op in ops
                                      if op.kind == "certificate"), "s")}


def _result_obs(result):
    return [result.status, None if result.witness_ideal_coords is None
            else list(result.witness_ideal_coords)]


# -- suite --------------------------------------------------------------------

class Suite:
    name = "suite"

    def __init__(self, hg, size):
        self.hg = hg
        self.names = SUITE_FIXTURES[size]

    def setup(self):
        """Parse, enumerate and descend every fixture once: the set-up work of
        a suite, measured here as the workload's set-up cost.  Each command
        still does its own, because `cli.main` parses its fixture afresh."""
        for name in self.names:
            fx = _load(self.hg, name)
            if fx.has_field:
                for i in range(len(fx.structures())):
                    fx.algebra(i)

    def batches(self, seed):
        rng = random.Random(f"{seed}:suite")
        while True:
            names = list(self.names)
            rng.shuffle(names)
            yield Batch([Op(f"suite {name}", name, self._suite, (name, seed),
                            check=self._check) for name in names])

    def _suite(self, name, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.hg.cli.main(["--json", "--seed", str(seed), "suite", name])
        return code, out.getvalue()

    @staticmethod
    def _check(value):
        code, text = value
        if code not in SUITE_EXIT_OK:
            raise CheckFailed(f"exit code {code}")
        failed = [c["name"] for c in json.loads(text)["checks"]
                  if c["verdict"] == "FAIL"]
        if failed:
            raise CheckFailed(f"FAIL checks: {failed}")
        return hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def observations(batches):
        out = {}
        for batch in batches:
            for op in batch.ops:
                out.setdefault(op.kind, op.observation)
        return out

    @staticmethod
    def compare(observed, expected):
        return [f"suite {name}: report sha256 {got}, expected {expected[name]}"
                for name, got in sorted(observed.items())
                if name in expected and got != expected[name]]

    def detail(self, ops):
        out = {"suite_wall_s": (sum(op.ref_seconds for op in ops), "s")}
        for name in self.names:
            times = [op.ref_seconds for op in ops if op.kind == name]
            out[f"suite_s.{name}"] = (median(times), "s")
        return out


WORKLOADS = {"generators": Generators, "freeness": Freeness, "suite": Suite}


def p90(values):
    """The 90th percentile, interpolated between order statistics."""
    ordered = sorted(values)
    pos = 0.9 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
