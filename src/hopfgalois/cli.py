"""Command-line driver exposing the toolkit's operations, property suites, and
certificates with deterministic, machine-parsable output."""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import integral, transition
# descend and is_generator are unused here: perfbench/smoke.py checks that its
# tracer wraps cli.descend and cli.is_generator
from .descent import (descend, generator_verdicts, is_generator,
                      is_separable, verify_commuting, verify_hopf_galois)
from .errors import (ConsistencyError, FixtureValidationError, HopfGaloisError,
                     TheoremViolationError)
from .fixtures import _ASSERTED, BUNDLED, Fixture, bundled_path, parse
from .linalg import int_det
from .numberfield import _pack_points
from .perm import FiniteGroup, centralizer_bruteforce
from .transition import form_evaluator, transition_matrix_of

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4

GENERATOR_SAMPLES = 200
SPECIALIZATION_POINTS = 20


class Report:
    """Accumulates per-check records; verdicts are PASS, FAIL, or UNKNOWN.
    `rng` is the command's one seeded stream, drawn by its checks in turn."""

    def __init__(self, command: list[str], fixture: str, seed: int):
        self.command = list(command)
        self.fixture = fixture
        self.seed = seed
        self.rng = random.Random(seed)
        self.checks: list[dict] = []
        self.started = time.monotonic()

    def add(self, name: str, verdict: str, provenance: str, **details):
        assert verdict in ("PASS", "FAIL", "UNKNOWN")
        record = {"name": name, "verdict": verdict, "provenance": provenance}
        if details:
            record["details"] = details
        self.checks.append(record)

    def exit_code(self) -> int:
        verdicts = {c["verdict"] for c in self.checks}
        if "FAIL" in verdicts:
            return EXIT_FAIL
        if "UNKNOWN" in verdicts:
            return EXIT_UNKNOWN
        return EXIT_PASS

    def to_json(self) -> str:
        # wall time is deliberately omitted: reports must be byte-identical
        # across identical runs
        payload = {
            "command": self.command,
            "fixture": self.fixture,
            "seed": self.seed,
            "checks": self.checks,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self, quiet: bool) -> str:
        lines = []
        counts = {"PASS": 0, "FAIL": 0, "UNKNOWN": 0}
        for check in self.checks:
            counts[check["verdict"]] += 1
            if quiet and check["verdict"] == "PASS":
                continue
            line = f"{check['verdict']:7s} {check['name']} [{check['provenance']}]"
            for key, value in check.get("details", {}).items():
                line += f"\n        {key}: {value}"
            lines.append(line)
        wall = time.monotonic() - self.started
        lines.append(
            f"{self.fixture}: {counts['PASS']} pass, {counts['FAIL']} fail, "
            f"{counts['UNKNOWN']} unknown (seed {self.seed}, {wall:.2f}s)")
        return "\n".join(lines) + "\n"


def _fraction_str(value) -> str:
    return str(Fraction(value))


def _vector_str(vec) -> str:
    return "[" + ", ".join(_fraction_str(v) for v in vec) + "]"


def lattice_block(lattice: integral.Lattice) -> dict:
    return {"denominator": lattice.denominator,
            "hnf_rows": [list(r) for r in lattice.rows]}


def _resolve(path_text: str) -> Path | None:
    p = Path(path_text)
    if p.exists():
        return p
    name = path_text[:-4] if path_text.endswith(".hgx") else path_text
    if name in BUNDLED:
        return bundled_path(name)
    return None


def _load(path_text: str) -> Fixture:
    """The validated fixture; a missing or invalid one is a usage error,
    which main reports on stderr."""
    resolved = _resolve(path_text)
    if resolved is None:
        raise HopfGaloisError(
            f"no such fixture file or bundled fixture: {path_text}")
    try:
        return parse(resolved)
    except FixtureValidationError as err:
        raise HopfGaloisError("\n  - ".join(
            [f"{path_text} failed validation with {len(err.problems)} "
             "problem(s):"] + err.problems))


def _classical_index(fx: Fixture) -> int:
    """The classical structure's index on a Galois fixture, else 0; a
    fixture without structures has none, a usage error.  rho(G) is the
    opposite of lambda(G), a structure of every Galois fixture."""
    structs = fx.structures()
    if not structs:
        raise HopfGaloisError(
            f"fixture {fx.name!r} has 0 structure(s); theorem11 needs one")
    if fx.stabilizer.order() != 1:
        return 0
    lam = FiniteGroup(fx.coset_space().translations)
    if lam not in structs:
        raise ConsistencyError(
            "the left translations are not among the structures")
    return fx.opposite_indices()[structs.index(lam)]


def _structure_index(fx: Fixture, n: int) -> int:
    count = len(fx.structures())
    if not 0 <= n < count:
        raise HopfGaloisError(
            f"structure index {n} out of range; fixture {fx.name!r} has "
            f"{count} structure(s)")
    return n


def cmd_validate(fx: Fixture, args, report: Report):
    report.add("descriptor-valid", "PASS", "definition",
               group_order=fx.group.order(),
               coset_count=fx.coset_space().size,
               field="present" if fx.has_field else "absent")
    if fx.has_field:
        report.add("irreducibility", "PASS", fx.context.irreducibility)
    _check_assertions(fx, report)


def _check_assertions(fx: Fixture, report: Report):
    for key, spec in sorted(fx.assertions.items()):
        got, want = _ASSERTED[key](fx), spec["value"]
        report.add(f"assertion:{key}", "PASS" if got == want else "FAIL",
                   spec["provenance"], expected=want, actual=got)


def cmd_enumerate(fx: Fixture, args, report: Report):
    for i, n in enumerate(fx.structures()):
        report.add(
            f"structure[{i}]", "PASS", "computed",
            order_profile=list(n.order_profile()),
            abelian=n.is_abelian(),
            opposite=fx.opposite_indices()[i],
            center_order=n.center().order(),
            normal_subgroup_orders=sorted(h.order()
                                          for h in n.normal_subgroups()))
    _check_assertions(fx, report)


def cmd_opposite_suite(fx: Fixture, args, report: Report):
    structs = fx.structures()
    space = fx.coset_space()
    for i, (n, opp) in enumerate(zip(structs, fx.opposites())):
        ok_centralizer = set(opp.elements) == set(centralizer_bruteforce(n, space))
        # the opposite of opp, built once as that of its own structure
        ok_involution = fx.opposites()[fx.opposite_indices()[i]] == n
        ok_order = len(opp.elements) == len(n.elements)
        inter = set(n.elements) & set(opp.elements)
        ok_center = inter == set(n.center().elements)
        # eta -> the element of the opposite sending the base point where
        # eta^{-1} does
        table = opp.point_map(space.base_point)
        witness = {eta: table[eta.inverse()(space.base_point)]
                   for eta in n.elements}
        ok_iso = _is_isomorphism(witness, n)
        self_opposite = opp == n
        ok_abelian = self_opposite == n.is_abelian()
        ok_closed = opp in structs
        verdict = "PASS" if all((ok_centralizer, ok_involution, ok_order,
                                 ok_center, ok_iso, ok_abelian, ok_closed)) else "FAIL"
        report.add(f"opposite-suite[{i}]", verdict, "theorem",
                   centralizer=ok_centralizer, involution=ok_involution,
                   same_order=ok_order, intersection_is_center=ok_center,
                   isomorphic=ok_iso, abelian_iff_self_opposite=ok_abelian,
                   closed_under_opposite=ok_closed)


def _is_isomorphism(mapping, n) -> bool:
    if len(set(mapping.values())) != len(n.elements):
        return False
    for a in n.elements:
        for b in n.elements:
            if mapping[a * b] != mapping[a] * mapping[b]:
                return False
    return True


def cmd_det_identity(fx: Fixture, args, report: Report):
    structs = fx.structures()
    targets = ([_structure_index(fx, args.n)] if args.n is not None
               else list(range(len(structs))))
    space = fx.coset_space()
    opposites = fx.opposite_indices()
    for i in targets:
        j = opposites[i]
        poly = fx.transition_det(i)[0]
        ok = transition.det_identity(structs[i], structs[j], space,
                                     poly, fx.transition_det(j)[0])
        report.add(f"det-identity[{i}]", "PASS" if ok else "FAIL", "theorem",
                   determinant=str(poly))


def cmd_descend(fx: Fixture, args, report: Report):
    algebra = fx.algebra(_structure_index(fx, args.n))
    den = algebra.basis_denominator
    basis_block = [[[_fraction_str(Fraction(x, den)) for x in block]
                    for block in vec] for vec in algebra.int_basis]
    d = algebra.action_denominator
    matrices = [[[_fraction_str(Fraction(v, d)) for v in row] for row in mat]
                for mat in algebra.int_action_matrices]
    report.add(f"descend[{args.n}]", "PASS", "computed",
               dimension=algebra.dim,
               basis=json.dumps(basis_block),
               action_matrices=json.dumps(matrices))


def _verify_commuting(fx: Fixture, report: Report):
    count = len(fx.structures())
    opposites = fx.opposite_indices()
    # verify_commuting is symmetric: one call per unordered pair
    commute = {(i, j): verify_commuting(fx.algebra(i), fx.algebra(j))
               for i in range(count) for j in range(i, count)}
    for i in range(count):
        for j in range(count):
            actual, expected = commute[min(i, j), max(i, j)], opposites[i] == j
            report.add(f"commuting[{i},{j}]",
                       "PASS" if actual == expected else "FAIL", "theorem",
                       commute=actual, opposite_pair=expected)


def _verify_hopf_galois(fx: Fixture, report: Report):
    for i in range(len(fx.structures())):
        ok = verify_hopf_galois(fx.algebra(i))
        report.add(f"hopf-galois[{i}]", "PASS" if ok else "FAIL", "theorem")


def _verify_separable(fx: Fixture, report: Report):
    for i in range(len(fx.structures())):
        ok = is_separable(fx.algebra(i))
        report.add(f"separable[{i}]", "PASS" if ok else "FAIL", "theorem")


def _verify_generators(fx: Fixture, report: Report):
    """The generator transfer on GENERATOR_SAMPLES seeded subfield elements:
    the two structures of each opposite pair must give the same verdict on
    every sample, integer coordinates drawn in report.rng order.  One call
    to generator_verdicts tests every structure on every sample, at every
    m, both ways (orbit rank and transition determinant): all at once mod
    p, one certificate per (sample, structure), and only a zero takes the
    exact route.  It builds each Delta_N only when it reads it."""
    sub = fx.subfield()
    pairs = sorted({tuple(sorted(pair))
                    for pair in enumerate(fx.opposite_indices())})
    coords = [sub.random_coords(report.rng) for _ in range(GENERATOR_SAMPLES)]
    # one test per structure and sample: the pairs cover every structure,
    # and a self-opposite structure is both sides of its pair
    tested = range(len(fx.structures()))
    verdicts = generator_verdicts([fx.algebra(i) for i in tested],
                                  (fx.transition_det(i)[0] for i in tested),
                                  sub, coords)
    for i, j in pairs:
        agree = sum(a == b for a, b in zip(verdicts[i], verdicts[j]))
        report.add(f"generator-transfer[{i},{j}]",
                   "PASS" if agree == len(coords) else "FAIL", "theorem",
                   samples=len(coords), agreeing=agree)


# the properties of `verify`, in the order `suite` checks them
VERIFY = {"hopf-galois": _verify_hopf_galois, "separable": _verify_separable,
          "commuting": _verify_commuting, "generators": _verify_generators}


def cmd_verify(fx: Fixture, args, report: Report):
    VERIFY[args.property](fx, report)


def cmd_assoc_order(fx: Fixture, args, report: Report):
    order = fx.order(_structure_index(fx, args.n), args.ideal)
    report.add(f"assoc-order[{args.n},{args.ideal}]", "PASS", "computed",
               **lattice_block(order.lattice))


def cmd_freeness(fx: Fixture, args, report: Report):
    order = fx.order(_structure_index(fx, args.n), args.ideal)
    result = integral.freeness_search(order, fx.ideal(args.ideal), args.bound)
    if result.free:
        den, ints = result.witness_subfield_coords
        report.add(f"freeness[{args.n},{args.ideal}]", "PASS", "computed",
                   status="FREE",
                   witness=_vector_str(result.witness_ideal_coords),
                   witness_subfield_coords=_vector_str(
                       [Fraction(x, den) for x in ints]))
    else:
        report.add(f"freeness[{args.n},{args.ideal}]", "UNKNOWN", "computed",
                   status="UNKNOWN", bound=args.bound)


def cmd_theorem11(fx: Fixture, args, report: Report):
    index = (_structure_index(fx, args.n) if args.n is not None
             else _classical_index(fx))
    partner = fx.opposite_indices()[index]
    try:
        cert = fx.certificate(index, args.ideal, args.bound)
    except TheoremViolationError as err:
        report.add(f"theorem11[{index},{partner},{args.ideal}]", "FAIL",
                   "theorem", error=str(err))
        return
    for side, result in (("main", cert.verdict_main),
                         ("partner", cert.verdict_partner)):
        name = f"theorem11:freeness-{side}[{args.ideal}]"
        if result.free:
            report.add(name, "PASS", "computed", status="FREE",
                       witness=_vector_str(result.witness_ideal_coords))
        else:
            report.add(name, "UNKNOWN", "computed", status="UNKNOWN",
                       bound=args.bound)
    for label, value in (
            ("witness-transfer", cert.witness_transfers),
            ("transferred-order-identity", cert.transferred_lattice_matches),
            ("commuting-transport", cert.commuting_transport_holds)):
        if value is None:
            report.add(f"theorem11:{label}", "UNKNOWN", "theorem",
                       note="no witness found within the bound")
        else:
            report.add(f"theorem11:{label}", "PASS" if value else "FAIL",
                       "theorem")


def cmd_suite(fx: Fixture, args, report: Report):
    cmd_enumerate(fx, args, report)
    cmd_opposite_suite(fx, args, report)
    cmd_det_identity(fx, argparse.Namespace(n=None), report)
    if fx.has_field:
        _specialization_checks(fx, report)
        for check in VERIFY.values():
            check(fx, report)
    # the freeness checks need a structure, which a fixture may lack
    if fx.has_field and fx.structures():
        index = _classical_index(fx)
        for ideal_name in sorted(fx.ideals):
            ideal_args = argparse.Namespace(n=index, ideal=ideal_name,
                                            bound=args.bound)
            cmd_assoc_order(fx, ideal_args, report)
            cmd_theorem11(fx, ideal_args, report)


def _specialization_checks(fx: Fixture, report: Report):
    """Symbolic determinant evaluated at coset-representative images must match
    the numeric transition determinant, exactly.  A point is the integer coset
    values of random integer subfield coordinates (CosetImages.vectors), D
    times the true ones, packed once at t = 2^(8 w), a ring map Z[t] -> Z.
    The symbolic side is sign * Delta_N at the packed values
    (transition.form_evaluator, planned once per structure), the numeric
    side int_det of the transition matrix on them; the two integers are
    compared as they are.  The width (numberfield._pack_points) holds every
    coefficient in Z[t] of either side: with L the largest l1 norm of a
    vector, the numeric side's are at most m! L^m, the symbolic side's at
    most S L^m, S the sum of |coefficients| of Delta_N, a determinant in
    unit forms, so S <= m! (and a faulty one up to 2 m! still fits).  An
    integer has one expansion in base 2^(8 w) with digits less than
    2^(8 w - 1) in absolute value, so equal integers are equal in Z[t], so
    in E.  Correct code always passes, as det T(y) = sign * Delta_N(y) in
    Z[y]."""
    sub = fx.subfield()
    table = sub.coset_images
    for i, n in enumerate(fx.structures()):
        poly, sign = fx.transition_det(i)
        symbolic = form_evaluator([poly])
        ok = True
        for _ in range(SPECIALIZATION_POINTS):
            ints = table.vectors(sub.random_coords(report.rng))
            packed, _ = _pack_points(ints, poly.nvars)
            (value,) = symbolic(packed)
            if sign * value != int_det(transition_matrix_of(n, packed)):
                ok = False
                break
        report.add(f"det-specialization[{i}]", "PASS" if ok else "FAIL",
                   "computed", points=SPECIALIZATION_POINTS)


def _common_flags(parser, suppress: bool):
    blank = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--seed", type=int,
                        **(blank or {"default": 0}),
                        help="seed for the reproducible sampling suites")
    parser.add_argument("--json", action="store_true", **blank,
                        help="emit a machine-readable report")
    parser.add_argument("--quiet", action="store_true", **blank,
                        help="only report failures and the summary")


def _bound(text: str) -> int:
    """A --bound value: an integer B >= 0, where 0 is the empty box."""
    bound = int(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {bound}")
    return bound


_bound.__name__ = "int"  # so a non-integer reads "invalid int value"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfgalois",
        description="Exact verification toolkit for Hopf-Galois structures "
                    "on separable field extensions")
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if name == "verify":  # the property comes before the fixture path
            p.add_argument("property", choices=sorted(VERIFY))
        p.add_argument("fixture", help="fixture file or bundled fixture name")
        _common_flags(p, suppress=True)
        return p

    add("validate", help="parse and fully validate a descriptor")
    add("enumerate", help="list the structures with opposite pairing and "
                          "group facts")
    p = add("det-identity", help="verify the transition determinant identity")
    p.add_argument("--n", type=int, default=None, help="structure index")
    p = add("descend", help="emit the descended basis and action matrices")
    p.add_argument("--n", type=int, required=True, help="structure index")
    add("verify", help="run a verification suite")
    p = add("assoc-order", help="compute an associated order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ideal", required=True)
    p = add("freeness", help="bounded search for a free generator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--bound", type=_bound, default=integral.DEFAULT_BOUND)
    p = add("theorem11", help="two-sided freeness certificate for a commuting "
                              "pair of structures")
    p.add_argument("--ideal", required=True)
    p.add_argument("--bound", type=_bound, default=integral.DEFAULT_BOUND)
    p.add_argument("--n", type=int, default=None,
                   help="structure index (default: the classical structure)")
    p = add("suite", help="run every applicable check")
    p.add_argument("--bound", type=_bound, default=integral.DEFAULT_BOUND)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return _run(args)
    except Exception as err:
        if isinstance(err, HopfGaloisError) and \
                not isinstance(err, ConsistencyError):
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        # a bug or a failed internal cross-check, not a verdict: exit 1 is
        # reserved for a failed check
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(args) -> int:
    fx = _load(args.fixture)
    report = Report([args.command, args.fixture], fx.name, args.seed)
    # looked up when it runs, so a patched or traced handler is the one run
    globals()["cmd_" + args.command.replace("-", "_")](fx, args, report)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render(args.quiet))
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
