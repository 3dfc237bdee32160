"""Deterministic command-line front end.

Subcommands map one-to-one onto the library surface: building potentials,
clearing and basis-fitting relations, Newton-polytope reports,
irreducibility and inequivalence certificates, the formal and nilpotent
augmentation solvers, partition components with witness checks, Markov
trees, and the multiple-cover identity table.

Exit codes: 0 success, 1 input error (bad flags or malformed files),
2 verification failure (a computation finished but an identity or check
did not hold).  Identical inputs and flags produce byte-identical
reports; every report embeds its configuration.  All numbers are exact
fractions.

``--seed`` is read here alone: the solvers take no seed, and it only
drives :func:`random_unimodular`, the suggested generic-coordinate
substitution a DoubleRoot report carries as ``suggested_transform``.
"""

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from math import comb

from . import intlin, localization, potentials
from .augment import (
    AugCandidate,
    ChordDegreeParams,
    build_partition_witness,
    dga_relation_check,
    enumerate_partition_components,
    perturbations,
    reeb_chord_degree,
    solve_formal_augmentation,
    solve_nilpotent_augmentation,
)
from .errors import AugvarError, DoubleRoot, ParseError, VerificationFailure
from .laurent import LaurentPoly, coeff_to_obj
from .polytope import (
    certify_distinct,
    irreducibility_certificate,
    newton_polytope,
    polytope_invariants,
)
from .rings import DEFAULT_ORDER, UniPoly

# Largest --ell of ``partitions``, --sheets of ``chord-degrees`` and sizes
# of ``localize``: each keeps a request under about a second.
# ``partitions --ell`` lists T(ell) components (T(9) = 2620, T(10) = 9496)
# and ``chord-degrees --sheets`` sheets * (sheets - 1) chords.  ``localize
# --d-max`` computes one cover contribution per degree (1000 take about
# 0.3 s, 1200 about 0.4 s), and its identity check compares the C(order +
# m, m) coefficients of log(1 + mu_1 + ... + mu_m).  100000 of them take
# about 0.5 s; ``--m`` and ``--order`` are bounded on their own too, since
# the series keys grow with m and the logarithm's pairs with the square of
# the order (m = 1 at order 3000 takes about a second).
MAX_ELL = 9
MAX_SHEETS = 200
MAX_COVER_DEGREE = 1000
MAX_IDENTITY_COEFFICIENTS = 100000
MAX_IDENTITY_M = 100
MAX_IDENTITY_ORDER = 1000


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError("%s: file not found" % path) from None
    except json.JSONDecodeError as err:
        raise ParseError("%s: %s" % (path, err)) from None


def _load_laurent(path):
    obj = _load_json(path)
    try:
        return LaurentPoly.from_obj(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ParseError("%s: not a Laurent polynomial file (%s)" % (path, err)) \
            from None


def _signs_or_none(text):
    return potentials.sign_vector(text) if text else None


def _build_potential(args):
    kind = args.kind
    if args.signs and kind not in ("clifford", "anticanonical"):
        raise ParseError("--signs does not apply to --kind %s" % kind)
    if kind == "clifford":
        return potentials.clifford_relation(args.n, _signs_or_none(args.signs))
    if kind == "unit-sphere-bundle":
        return potentials.product_spheres_relation("unit-sphere-bundle")
    if kind == "anticanonical":
        return potentials.product_spheres_relation(
            "anticanonical", _signs_or_none(args.signs))
    if kind == "toric":
        if not args.fan:
            raise ParseError("--kind toric needs --fan FILE")
        obj = _load_json(args.fan)
        try:
            rays = [intlin.lattice_point(r) for r in obj["rays"]]
            signs = obj.get("signs")
            if signs is not None:
                signs = potentials.sign_vector(signs)
        except (KeyError, TypeError):
            raise ParseError("%s: expected {\"rays\": ..., \"signs\": ...}"
                             % args.fan) from None
        vertex = _parse_vertex(args.vertex) if getattr(args, "vertex", None) else None
        return potentials.toric_relation(rays, signs, vertex=vertex,
                                         fit_basis=not args.no_fit)
    if kind == "user":
        if not args.input:
            raise ParseError("--kind user needs --input FILE")
        f = _load_laurent(args.input)
        vertex = _parse_vertex(args.vertex) if getattr(args, "vertex", None) else None
        return potentials.user_relation(f, vertex=vertex,
                                        fit_basis=not args.no_fit)
    raise ParseError("unknown potential kind %r" % kind)


def _parse_vertex(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError("vertex must be comma-separated integers, got %r" % text) \
            from None


def _fraction_flag(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("%s must be a rational number, got %r" % (flag, text)) \
            from None


def _relation_for_solver(args):
    if args.input:
        return _load_laurent(args.input)
    if args.clifford:
        spec = potentials.clifford_relation(args.clifford,
                                            _signs_or_none(args.signs))
        return spec.lifted_relation
    raise ParseError("need --input FILE or --clifford N")


def _solved_variable(args, relation):
    """The variable to solve for: ``--var``, else the relation's last."""
    if args.var:
        return args.var
    if not relation.variables:
        raise ParseError("%s: the relation has no variables to solve for" % args.input)
    return relation.variables[-1]


def _series_obj(sol):
    return [{"exp": list(e), "coef": coeff_to_obj(c)}
            for e, c in sol.series_coefficients()]


# ----------------------------------------------------------------- handlers

def _cmd_potential(args, report):
    spec = _build_potential(args)
    report["result"] = {
        "source": spec.source,
        "base_potential": spec.base_potential.to_obj(),
        "lifted_relation": spec.lifted_relation.to_obj(),
        "vertex": list(spec.vertex),
        "basis": [list(r) for r in spec.basis],
        "signs": list(spec.signs),
    }
    return 0


def _cmd_augpoly(args, report):
    f = _load_laurent(args.input)
    spec = potentials.user_relation(
        f, vertex=_parse_vertex(args.vertex) if args.vertex else None,
        fit_basis=not args.no_fit)
    report["result"] = {
        "input": f.to_obj(),
        "vertex": list(spec.vertex),
        "basis": [list(r) for r in spec.basis],
        "augmentation_polynomial": spec.lifted_relation.to_obj(),
        "constant_term": str(spec.lifted_relation.constant_term()),
    }
    return 0


def _cmd_newton(args, report):
    f = _load_laurent(args.input)
    P = newton_polytope(f)
    inv = polytope_invariants(P)
    report["result"] = {
        "polytope": {"dim": P.ambient_dim,
                     "vertices": [list(v) for v in P.vertices]},
        "invariants": inv.as_dict(),
    }
    return 0


def _cmd_irreducible(args, report):
    f = _load_laurent(args.input)
    chain = tuple(args.peel.split(",")) if args.peel else ()
    verdict = irreducibility_certificate(f, chain)
    report["result"] = {"verdict": verdict.kind, "witness": verdict.witness}
    return 0 if verdict.kind == "irreducible" else 2


def _cmd_distinguish(args, report):
    f = _load_laurent(args.input)
    g = _load_laurent(args.other)
    P, Q = newton_polytope(f), newton_polytope(g)
    verdict = certify_distinct(P, Q)
    report["result"] = {
        "verdict": verdict.kind,
        "witness": verdict.witness,
        "invariants": {"first": polytope_invariants(P).as_dict(),
                       "second": polytope_invariants(Q).as_dict()},
    }
    return 0


def random_unimodular(n, seed):
    """Seeded random unimodular matrix: a product of four elementary
    shears, swaps and sign flips with small entries, kept small so Newton
    polytopes do not blow up under the substitution."""
    rng = random.Random(seed)
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4):
        op = rng.choice(("shear", "swap", "neg")) if n > 1 else "neg"
        if op == "shear":
            i, j = rng.sample(range(n), 2)
            f = rng.choice((-2, -1, 1, 2))
            M[i] = [a + f * b for a, b in zip(M[i], M[j])]
        elif op == "swap":
            i, j = rng.sample(range(n), 2)
            M[i], M[j] = M[j], M[i]
        else:
            i = rng.randrange(n)
            M[i] = [-x for x in M[i]]
    return M


def _double_root_obj(err, relation, seed):
    """The DoubleRoot report, with a seeded unimodular substitution of the
    relation's variables to retry in; nothing checks that it helps."""
    return {
        "error": "DoubleRoot",
        "message": str(err),
        "variable": err.variable,
        "order": err.order,
        "suggested_transform": random_unimodular(len(relation.variables), seed),
    }


def _cmd_solve_aug(args, report):
    relation = _relation_for_solver(args)
    factor = None
    if args.factor:
        obj = _load_json(args.factor)
        try:
            factor = UniPoly([Fraction(c) for c in obj["modulus"]])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ParseError("%s: expected {\"modulus\": [\"c0\", ...]}"
                             % args.factor) from None
    var = _solved_variable(args, relation)
    try:
        sol = solve_formal_augmentation(relation, var, order=args.order, factor=factor)
    except DoubleRoot as err:
        report["result"] = _double_root_obj(err, relation, args.seed)
        return 2
    report["result"] = {
        "relation": str(relation),
        "solved_variable": sol.variable,
        "kappa": coeff_to_obj(sol.kappa),
        "series": _series_obj(sol),
        "residual_order_checked": sol.order,
    }
    return 0


def _cmd_solve_nilpotent(args, report):
    relation = _relation_for_solver(args)
    var = _solved_variable(args, relation)
    try:
        sol = solve_nilpotent_augmentation(relation, args.multiplicity, var,
                                           order=args.order)
    except DoubleRoot as err:
        report["result"] = _double_root_obj(err, relation, args.seed)
        return 2
    report["result"] = {
        "relation": str(relation),
        "solved_variable": sol.variable,
        "multiplicity": sol.multiplicity,
        "kappa": coeff_to_obj(sol.kappa),
        "image_of_relation": coeff_to_obj(sol.image),
        "series": _series_obj(sol),
        "residual_order_checked": sol.order,
    }
    return 0


def _involutions(n):
    """T(n), the number of partitions of n sheets into blocks of size one
    and two: T(n) = T(n - 1) + (n - 1) T(n - 2)."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def _cmd_partitions(args, report):
    if args.ell > MAX_ELL:
        raise ParseError("--ell %d is over its limit of %d: it would produce "
                         "T(%d) = %d components"
                         % (args.ell, MAX_ELL, args.ell, _involutions(args.ell)))
    signs = potentials.sign_vector(args.signs) if args.signs else None
    nvars = args.nvars
    spec = potentials.clifford_relation(nvars + 1, signs)
    spins = [s.strip() for s in args.spins.split(",")] if args.spins \
        else [0] * args.ell
    if len(spins) != args.ell:
        raise ParseError("--spins needs exactly %d labels" % args.ell)
    comps = enumerate_partition_components(args.ell, spec, spins)
    rows = []
    failures = 0
    for comp in comps:
        row = {"partition": comp.label(),
               "equations": [str(e) for e in comp.equations]}
        if args.ell in (2, 3) and args.check:
            witness = build_partition_witness(comp.blocks, spec.signs, nvars)
            check = dga_relation_check(witness)
            bad_perturbations = sum(
                1 for _, pert in perturbations(witness)
                if dga_relation_check(pert).passed)
            row["witness"] = witness.to_obj()
            row["witness_passes"] = check.passed
            row["perturbations_all_fail"] = bad_perturbations == 0
            if not check.passed or bad_perturbations:
                failures += 1
        rows.append(row)
    report["result"] = {"component_count": len(comps), "components": rows}
    if not args.check:
        report["result"]["witness_checks"] = "not run: --no-check"
    elif args.ell not in (2, 3):
        report["result"]["witness_checks"] = ("not run: witnesses are built for --ell 2 "
                                              "and 3 only, not %d" % args.ell)
    return 2 if failures else 0


def _cmd_check_candidate(args, report):
    obj = _load_json(args.input)
    try:
        cand = AugCandidate.from_obj(obj)
    except AugvarError as err:
        raise ParseError("%s: %s" % (args.input, err)) from None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ParseError("%s: malformed candidate (%s)" % (args.input, err)) \
            from None
    check = dga_relation_check(cand)
    report["result"] = {
        "verdict": "Pass" if check.passed else "Fail",
        "violated_relation": check.violated,
        "violation_value": str(check.value) if check.value is not None else "",
    }
    return 0 if check.passed else 2


def _cmd_markov(args, report):
    triples = potentials.markov_generate(args.bound)
    rows = []
    for t in triples:
        row = {"triple": list(t.as_tuple())}
        if t.a == 1:
            row["fibonacci"] = potentials.markov_fibonacci_check(t)
        rows.append(row)
    report["result"] = {"bound": args.bound, "count": len(triples),
                        "triples": rows}
    return 0


def _cmd_localize(args, report):
    if args.d_max < 1:
        raise ParseError("--d-max must be >= 1, got %d" % args.d_max)
    if args.d_max > MAX_COVER_DEGREE:
        raise ParseError("--d-max %d is over its limit of %d: it would produce %d cover "
                         "contributions" % (args.d_max, MAX_COVER_DEGREE, args.d_max))
    for flag, value, limit, size in (("--m", args.m, MAX_IDENTITY_M, "series variables"),
                                     ("--order", args.order, MAX_IDENTITY_ORDER, "degrees")):
        if value > limit:
            raise ParseError("%s %d is over its limit of %d: the identity check would have "
                             "%d %s" % (flag, value, limit, value, size))
    size = comb(args.order + args.m, args.m) if args.m >= 1 else 0
    if size > MAX_IDENTITY_COEFFICIENTS:
        raise ParseError("--m %d --order %d is over the limit of %d coefficients: it would "
                         "compare C(%d, %d) = %d" % (args.m, args.order,
                                                     MAX_IDENTITY_COEFFICIENTS,
                                                     args.order + args.m, args.m, size))
    rows = []
    for d in range(1, args.d_max + 1):
        p = localization.hl_cover_weights(d)
        contribution = localization.euler_contribution(p)
        expected = Fraction((-1) ** (d - 1), d * d)
        rows.append({"d": d, "contribution": str(contribution),
                     "matches_closed_form": contribution == expected})
    ok_table = all(r["matches_closed_form"] for r in rows)
    equal, compared = localization.verify_multicover_identity(args.m, args.order)
    report["result"] = {
        "cover_contributions": rows,
        "multinomial_identity": {
            "m": args.m,
            "order": args.order,
            "coefficients_compared": compared,
            "verdict": "PASS" if equal else "FAIL",
        },
    }
    return 0 if (ok_table and equal) else 2


def _cmd_chord_degrees(args, report):
    if args.sheets > MAX_SHEETS:
        raise ParseError("--sheets %d is over its limit of %d: it would produce "
                         "%d chords" % (args.sheets, MAX_SHEETS,
                                        args.sheets * (args.sheets - 1)))
    params = ChordDegreeParams(
        sheets=args.sheets,
        theta_over_pi=_fraction_flag(args.theta_over_pi, "--theta-over-pi"),
        slope=_fraction_flag(args.slope, "--slope"))
    rows = []
    for j in range(1, args.sheets + 1):
        for k in range(1, args.sheets + 1):
            if j == k:
                continue
            deg, z2 = reeb_chord_degree(params, j, k)
            rows.append({"chord": "a_%d%d" % (j, k), "real_degree": str(deg),
                         "z2_degree": z2})
    report["result"] = {"degrees": rows}
    return 0


# ------------------------------------------------------------------ plumbing

def _render_text(obj, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, value))
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append("%s- %s" % (pad, value))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ParseError`, so
    that they exit with status 1 like every other input error; argparse
    itself would exit with status 2.  Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser():
    parser = _Parser(
        prog="augvar",
        description="Exact computations with augmentation varieties, disk "
                    "potentials, Newton polytopes, and multiple-cover identities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, order=True):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for suggested generic-coordinate retries")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help="series truncation order (default %d)" % DEFAULT_ORDER)

    p = sub.add_parser("potential", help="build a potential / lifted relation")
    p.add_argument("--kind", required=True,
                   choices=("clifford", "unit-sphere-bundle", "anticanonical",
                            "toric", "user"))
    p.add_argument("--n", type=int, default=3, help="sphere dimension parameter")
    p.add_argument("--signs", default="", help="CSV signs for --kind clifford or anticanonical")
    p.add_argument("--fan", default="", help="JSON fan file for --kind toric")
    p.add_argument("--input", default="", help="Laurent JSON for --kind user")
    p.add_argument("--vertex", default="", help="comma-separated clearing vertex")
    p.add_argument("--no-fit", action="store_true",
                   help="skip the unimodular positivity fit")
    common(p, order=False)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("augpoly", help="vertex clearing + basis fitting")
    p.add_argument("--input", required=True)
    p.add_argument("--vertex", default="")
    p.add_argument("--no-fit", action="store_true")
    common(p, order=False)
    p.set_defaults(handler=_cmd_augpoly)

    p = sub.add_parser("newton", help="Newton polytope invariants report")
    p.add_argument("--input", required=True)
    common(p, order=False)
    p.set_defaults(handler=_cmd_newton)

    p = sub.add_parser("irreducible", help="irreducibility certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--peel", default="",
                   help="comma-separated suspension variables, outermost first")
    common(p, order=False)
    p.set_defaults(handler=_cmd_irreducible)

    p = sub.add_parser("distinguish", help="polytope inequivalence certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--other", required=True)
    common(p, order=False)
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser("solve-aug", help="formal power-series augmentation")
    p.add_argument("--input", default="", help="Laurent JSON relation")
    p.add_argument("--clifford", type=int, default=0,
                   help="use the Clifford relation for this n instead of a file")
    p.add_argument("--signs", default="")
    p.add_argument("--var", default="", help="variable to solve for (default last)")
    p.add_argument("--factor", default="",
                   help="JSON file with a squarefree modulus for irrational roots")
    common(p)
    p.set_defaults(handler=_cmd_solve_aug)

    p = sub.add_parser("solve-nilpotent", help="nilpotent scheme augmentation")
    p.add_argument("--input", default="")
    p.add_argument("--clifford", type=int, default=0)
    p.add_argument("--signs", default="")
    p.add_argument("--var", default="")
    p.add_argument("--multiplicity", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_solve_nilpotent)

    p = sub.add_parser("partitions", help="augmentation components of a "
                                          "disconnected Legendrian")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--nvars", type=int, default=2,
                   help="variables per sheet (default 2: Clifford in S^5)")
    p.add_argument("--signs", default="")
    p.add_argument("--spins", default="", help="comma-separated spin labels")
    p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                   help="run witness + perturbation checks for 2 or 3 sheets")
    common(p, order=False)
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("check-candidate", help="check a candidate augmentation")
    p.add_argument("--input", required=True)
    common(p, order=False)
    p.set_defaults(handler=_cmd_check_candidate)

    p = sub.add_parser("markov", help="Markov triples by mutation")
    p.add_argument("--bound", type=int, required=True)
    common(p, order=False)
    p.set_defaults(handler=_cmd_markov)

    p = sub.add_parser("localize", help="multiple-cover contributions and the "
                                        "multinomial logarithm identity")
    p.add_argument("--d-max", type=int, default=10)
    p.add_argument("--m", type=int, default=2,
                   help="number of series variables in the identity check")
    common(p)
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("chord-degrees", help="mixed Reeb-chord degrees")
    p.add_argument("--sheets", type=int, default=3)
    p.add_argument("--theta-over-pi", default="2/9",
                   help="translation angle as a multiple of pi")
    p.add_argument("--slope", default="3")
    common(p, order=False)
    p.set_defaults(handler=_cmd_chord_degrees)

    return parser


@functools.cache
def _parser():
    """The one parser :func:`run` reuses for every request, built on the
    first call rather than at import.  Reuse is safe: ``parse_args`` makes
    a fresh namespace each time, no default is mutable, and usage errors
    look up ``sys.stderr`` when they are raised."""
    return build_parser()


def run(argv=None):
    """Run one subcommand and return its exit code.  Out-of-range values,
    which the library rejects with ValueError, are input errors too."""
    try:
        args = _parser().parse_args(argv)
        if hasattr(args, "order") and args.order < 1:
            raise ParseError("--order must be >= 1, got %d" % args.order)
        report = {"config": _config_dict(args)}
        code = args.handler(args, report)
    except ParseError as err:
        print("input error: %s" % err, file=sys.stderr)
        return 1
    except VerificationFailure as err:
        print("verification failure: %s" % err, file=sys.stderr)
        return 2
    except AugvarError as err:
        print("input error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 1
    except ValueError as err:
        print("input error: %s" % err, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render_text(report)))
    return code


def _config_dict(args):
    skip = {"handler", "format"}
    cfg = {"format": args.format}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        cfg[key] = value
    return cfg


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (``| head``): exit 1 without a traceback, with
        # stdout on os.devnull so the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
