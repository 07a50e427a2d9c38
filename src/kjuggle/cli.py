"""Command-line interface.

One subcommand per subsystem plus a selftest that runs the acceptance
criteria.  Every command takes --json (poset refuses it with --dot); counts
are serialized as decimal strings so arbitrary-precision values survive any
JSON reader.  Handlers print nothing: dispatch prints each result.  The parser
states each command's inputs: a missing, conflicting or foreign flag is a
usage error (exit 2), and a bad value a DomainError (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from . import acceptance
from .bcd import (b_to_a_inverse, b_to_a_map, c_to_a_inverse, c_to_a_map,
                  highest_root_juggling, schmidt_bincer_count,
                  schmidt_bincer_literal)
from .bijection import gamma, verify_correspondence
from .closedforms import (CLOSED_FORMS, GF_DIRECT_MAX, ORACLE_MAX_RANK,
                          catalan_product_check, closed_form_check, ehrhart_fit,
                          gf_check, gf_row, lidskii_count, perm_det_count,
                          surd_value)
from .errors import DomainError, InvariantViolation
from .juggling import ALL_THROWS, ThrowSet, count_sequences, enumerate_sequences
from .kostant import count_partitions, enumerate_partitions, make_partition
from .poset import (binomial_power_coefficients, build_poset,
                    characteristic_polynomial, partition_label, poset_dot)
from .roots import (ambient_dim, check_positive_roots, highest_root, parse_root,
                    positive_roots, weight_from_simple)


def _emit_json(payload) -> None:
    # default=list prints a listing that a handler left as an iterator
    print(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list))


def _parse_ints(text: str, what: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise DomainError(f"malformed {what}: {text!r}") from None


def _read_lines(path: str, what: str) -> list[str]:
    """The stripped lines of a file, blank lines and # comments dropped."""
    try:
        with open(path) as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path}: {exc}") from None
    return [line for line in lines if line and not line.startswith("#")]


def _load_roots(path: str):
    return [parse_root(line) for line in _read_lines(path, "roots")]


def _load_partition(path: str):
    parts = []
    for line in _read_lines(path, "partition"):
        fields = line.split()
        if len(fields) > 2:
            raise DomainError(f"malformed partition line {line!r}; expected root [multiplicity]")
        root = parse_root(fields[0])
        mult = 1
        if len(fields) > 1:
            try:
                mult = int(fields[1])
            except ValueError:
                raise DomainError(f"malformed multiplicity in {line!r}") from None
            if mult < 1:
                raise DomainError(f"multiplicity must be positive in {line!r}")
        parts.extend([root] * mult)
    return make_partition(parts)


def _parse_throws(spec: str) -> ThrowSet:
    if spec.startswith("heights="):
        return ThrowSet.from_heights(_parse_ints(spec[len("heights="):], "height list"))
    raise DomainError(f"malformed throw spec {spec!r}; expected heights=h1,h2,...")


def _load_throws(path: str) -> ThrowSet:
    throws = []
    for line in _read_lines(path, "throws"):
        left, sep, right = line.partition(":")
        if not sep:
            raise DomainError(f"malformed throw {line!r}; expected time:height")
        try:
            throws.append((int(left), int(right)))
        except ValueError:
            raise DomainError(f"malformed throw {line!r}") from None
    return ThrowSet.from_throws(throws)


def _partition_json(partition):
    return [[str(root), mult] for root, mult in partition]


def _sequence_str(seq) -> str:
    return " -> ".join(",".join(map(str, state)) or "0" for state in seq.states)


def _sequence_json(seq):
    return {"states": [list(s) for s in seq.states],
            "throws": [[t.time, t.height] for t in seq.throws]}


def _poly_str(coeffs, var: str = "q") -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        mag_str = str(mag) if getattr(mag, "denominator", 1) == 1 else f"({mag})"
        if power == 0:
            body = mag_str
        elif power == 1:
            body = f"{var}" if mag == 1 else f"{mag_str}{var}"
        else:
            body = f"{var}^{power}" if mag == 1 else f"{mag_str}{var}^{power}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _resolve_weight(args, lie_type: str, rank: int):
    """The weight of --weight-alpha or else --weight-eps; the parser lets
    exactly one through."""
    if args.weight_alpha is not None:
        coeffs = _parse_ints(args.weight_alpha, "simple-root coefficients")
        return weight_from_simple(lie_type, rank, coeffs)
    weight = _parse_ints(args.weight_eps, "weight")
    if len(weight) != ambient_dim(lie_type, rank):
        raise DomainError(f"weight has {len(weight)} coordinates, ambient dimension is "
                          f"{ambient_dim(lie_type, rank)}")
    return weight


# --- subcommand handlers -------------------------------------------------
#
# Each handler returns (exit code, JSON payload, text lines), and dispatch
# prints the payload under --json, else the lines.  A line that starts with
# "# " is commentary, which --quiet drops.  A listing is left as an iterator
# in both, so only the form that is printed is built.


def _cmd_roots(args) -> tuple:
    roots = [str(root) for root in positive_roots(args.type, args.rank)]
    top = list(highest_root(args.type, args.rank))
    payload = {"type": args.type, "rank": args.rank, "ambient": ambient_dim(args.type, args.rank),
               "count": str(len(roots)), "roots": roots, "highest_root": top}
    return 0, payload, roots + [
        f"# {len(roots)} positive roots of {args.type}_{args.rank}, highest root {top}"]


def _cmd_kostant(args) -> tuple:
    weight = _resolve_weight(args, args.type, args.rank)
    allowed = positive_roots(args.type, args.rank)
    if args.roots is not None:
        allowed = _load_roots(args.roots)
        check_positive_roots(args.type, args.rank, allowed)
    count = count_partitions(weight, allowed)
    partitions = enumerate_partitions(weight, allowed) if args.enumerate else []
    if args.enumerate and len(partitions) != count:
        raise InvariantViolation(f"{len(partitions)} partitions listed, {count} counted, for "
                                 f"weight {list(weight)} over {' '.join(map(str, allowed))}")
    payload = {"count": str(count)}
    if args.enumerate:
        payload["partitions"] = map(_partition_json, partitions)
    return 0, payload, chain([str(count)], map(partition_label, partitions))


def _throwset_from_args(args) -> ThrowSet:
    if args.throws is not None:
        return _parse_throws(args.throws)
    if args.throws_file is not None:
        return _load_throws(args.throws_file)
    return ALL_THROWS


def _cmd_js(args) -> tuple:
    a = _parse_ints(args.initial, "initial state")
    b = _parse_ints(args.terminal, "terminal state")
    throws = _throwset_from_args(args)
    if args.action == "count":
        count = count_sequences(a, b, args.length, args.capacity, throws)
        return 0, {"count": str(count)}, [str(count)]
    seqs = enumerate_sequences(a, b, args.length, args.capacity, throws)
    payload = {"count": str(len(seqs)), "sequences": map(_sequence_json, seqs)}
    return 0, payload, chain(map(_sequence_str, seqs), [f"# {len(seqs)} sequences"])


def _cmd_roundtrip(args) -> tuple:
    weight = _parse_ints(args.weight_eps, "weight")
    allowed = _load_roots(args.roots) if args.roots is not None else None
    report = verify_correspondence(weight, allowed, args.capacity)
    payload = {
        "weight": list(report.weight),
        "partition_count": str(report.partition_count),
        "sequence_count": str(report.sequence_count),
        "counts_equal": report.counts_equal,
        "injective": report.injective,
        "image_contained": report.image_contained,
        "roundtrip_ok": report.roundtrip_ok,
        "capacity_count": None if report.capacity_count is None
        else str(report.capacity_count),
        "ok": report.ok,
    }
    lines = [f"partitions: {report.partition_count}", f"sequences:  {report.sequence_count}"]
    if report.capacity_count is not None:
        lines.append(f"capacity-restricted partitions: {report.capacity_count}")
    lines.append("ok" if report.ok else f"FAILED: {report.first_mismatch}")
    return 0 if report.ok else 1, payload, lines


def _cmd_to_juggling(args) -> tuple:
    partition = _load_partition(args.partition)
    initial = _parse_ints(args.initial, "initial state")
    seq = gamma(partition, initial, args.length)
    return 0, _sequence_json(seq), [_sequence_str(seq)]


def _cmd_bcd_count(args) -> tuple:
    if args.highest_root:
        weight = highest_root(args.type, args.rank)
    else:
        weight = _resolve_weight(args, args.type, args.rank)
    is_highest = tuple(weight) == highest_root(args.type, args.rank)
    methods = {}
    if args.method in ("oracle", "all"):
        methods["oracle"] = count_partitions(weight, positive_roots(args.type, args.rank))
    if args.method in ("schmidt-bincer", "all"):
        methods["schmidt_bincer"] = schmidt_bincer_count(args.type, args.rank, weight)
    if args.method == "juggling" and not is_highest:
        raise DomainError("the juggling identity is proved for the "
                          "highest root only; use --highest-root")
    if args.method in ("juggling", "all") and is_highest:
        methods["juggling"] = highest_root_juggling(args.type, args.rank)
    if args.method == "all":
        methods["literal_schmidt_bincer"] = schmidt_bincer_literal(
            args.type, args.rank, weight)
    agree = len({methods[k] for k in methods if k != "literal_schmidt_bincer"}) <= 1
    payload = {
        "type": args.type,
        "rank": args.rank,
        "weight": list(weight),
        "methods": {k: str(v) for k, v in methods.items()},
        "agree": agree,
    }
    lines = [f"{name}: {methods[name]}" for name in sorted(methods)]
    if len(methods) > 1:
        lines.append(f"# methods agree: {agree}")
    return 0 if agree else 1, payload, lines


def _cmd_bcd_map(args) -> tuple:
    partition = _load_partition(args.partition)
    if args.which == "b2a":
        image = b_to_a_map(partition, args.rank)
        back = b_to_a_inverse(image, args.rank)
    else:
        image = c_to_a_map(partition, args.rank)
        back = c_to_a_inverse(image, args.rank)
    if back != partition:
        raise InvariantViolation(f"map roundtrip failed for --which {args.which} --rank "
                                 f"{args.rank} on partition {partition_label(partition)}")
    payload = {"image": _partition_json(image), "roundtrip_ok": True}
    return 0, payload, [partition_label(image), "# roundtrip: ok"]


def _cmd_poset(args) -> tuple:
    a = _parse_ints(args.initial, "initial state")
    b = _parse_ints(args.terminal, "terminal state")
    poset = build_poset(a, b, args.length, args.capacity)
    if args.dot:  # the parser refuses --dot with --json
        return 0, None, [poset_dot(poset)]
    coeffs = characteristic_polynomial(poset)
    pretty = _poly_str(coeffs)
    factored = None
    degree = len(coeffs) - 1
    if coeffs == binomial_power_coefficients(degree):
        factored = f"(q - 1)^{degree}"
    payload = {
        "elements": str(len(poset)),
        "covers": str(len(poset.covers)),
        "coefficients": [str(c) for c in coeffs],
        "polynomial": pretty,
        "factored": factored,
    }
    lines = [f"elements: {len(poset)}", f"covers: {len(poset.covers)}",
             f"characteristic polynomial: {pretty}"]
    if factored:
        lines.append(f"# = {factored}")
    return 0, payload, lines


def _cmd_permdet(args) -> tuple:
    allowed = (_load_roots(args.roots) if args.roots is not None
               else positive_roots("A", args.rank))
    p = perm_det_count(args.rank, allowed)  # raises unless det(N) equals it
    oracle = count_partitions(highest_root("A", args.rank), allowed)
    payload = {"permanent": str(p), "determinant": str(p), "kostant": str(oracle),
               "agree": p == oracle}
    lines = [f"permanent:   {p}", f"determinant: {p}", f"partitions:  {oracle}"]
    return 0 if p == oracle else 1, payload, lines


def _cmd_lidskii(args) -> tuple:
    weight = _parse_ints(args.weight_eps, "weight")
    value = lidskii_count(weight, args.variant)  # "both" raises unless they agree
    values = {k: value for k in ("binomial", "multiset") if args.variant in (k, "both")}
    oracle = count_partitions(weight, positive_roots("A", len(weight) - 1))
    agree = value == oracle
    payload = {"weight": list(weight), "values": {k: str(v) for k, v in values.items()},
               "oracle": str(oracle), "agree": agree}
    lines = [f"{name}: {values[name]}" for name in sorted(values)] + [f"oracle: {oracle}"]
    return 0 if agree else 1, payload, lines


def _cmd_gf(args) -> tuple:
    coeffs = gf_check(args.row, args.upto)  # raises unless the direct counts agree
    state, capacity, _, _ = gf_row(args.row)
    payload = {"row": args.row, "state": list(state), "capacity": capacity,
               "coefficients": [str(c) for c in coeffs], "agree_with_direct": True}
    return 0, payload, [" ".join(str(c) for c in coeffs),
                        f"# direct counts (n <= {min(args.upto, GF_DIRECT_MAX)}) agree: True"]


def _cmd_closedform(args) -> tuple:
    value = closed_form_check(args.which, args.r)  # raises unless the oracle agrees
    surd = surd_value(args.which, args.r)
    payload = {"which": args.which, "r": args.r, "value": str(value),
               "surd": str(surd), "surd_matches": surd == value}
    if args.r <= ORACLE_MAX_RANK:
        payload["oracle"] = str(value)
    return 0, payload, [str(value), f"# exact surd value: {surd}"]


def _cmd_catalan(args) -> tuple:
    value = catalan_product_check(args.r)  # raises unless it is the Catalan product
    return 0, {"r": args.r, "sequences": str(value), "catalan_product": str(value)}, [str(value)]


def _cmd_ehrhart(args) -> tuple:
    weight = _parse_ints(args.weight_eps, "weight")
    coeffs = ehrhart_fit(weight, args.extra)
    payload = {"weight": list(weight), "coefficients": [str(c) for c in coeffs],
               "degree": str(len(coeffs) - 1), "held_out_points": str(args.extra)}
    return 0, payload, [_poly_str(coeffs, "t")]


def _cmd_selftest(args) -> tuple:
    results = acceptance.run_all()
    failed = [r for r in results if not r[2]]
    # the text rows keep each criterion's time; the JSON leaves it out, so two
    # runs print the same bytes
    payload = {
        "criteria": [{"key": key, "title": title, "ok": ok, "detail": detail}
                     for key, title, ok, detail, _ in results],
        "passed": str(len(results) - len(failed)),
        "failed": str(len(failed)),
    }
    # --quiet drops the PASS rows, which are not commentary
    lines = [f"{'PASS' if ok else 'FAIL'}  {key:<22} {title} [{detail}] {seconds:.3f} s"
             for key, title, ok, detail, seconds in results if not (args.quiet and ok)]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1, payload, lines


# --- parser --------------------------------------------------------------


# Options whose value is a comma list.  argparse takes a separate value led
# by a negative entry ("-1,2") for an unknown option, so such a value is
# joined to its option ("--initial=-1,2") before parsing.
_LIST_OPTIONS = frozenset(("--weight-eps", "--weight-alpha", "--initial", "--terminal"))


def _join_negative_lists(args) -> list:
    args = list(args)
    out = []
    k = 0
    while k < len(args):
        arg = args[k]
        if arg == "--":  # every later token is a positional
            return out + args[k:]
        value = args[k + 1] if k + 1 < len(args) else ""
        if arg in _LIST_OPTIONS and value[:1] == "-" and value[1:2].isdigit():
            out.append(f"{arg}={value}")
            k += 2
        else:
            out.append(arg)
            k += 1
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line `<prog>: error: <message>` on
    stderr and exits 2; sub-parsers are built with the same class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kjuggle",
        description="Kostant partition functions and magic multiplex juggling sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress commentary lines")
    common = argparse.ArgumentParser(add_help=False, parents=[quiet])
    common.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("roots", parents=[common], help="list positive roots")
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", required=True, type=int)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("kostant", parents=[common], help="count or list partitions")
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", required=True, type=int)
    weight = p.add_mutually_exclusive_group(required=True)
    weight.add_argument("--weight-alpha", help="comma-separated simple-root coefficients")
    weight.add_argument("--weight-eps", help="comma-separated standard coordinates")
    p.add_argument("--roots", help="file restricting the allowed roots")
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(handler=_cmd_kostant)

    p = sub.add_parser("js", parents=[common], help="count or list juggling sequences")
    p.add_argument("action", choices=("count", "enum"))
    p.add_argument("--initial", required=True)
    p.add_argument("--terminal", required=True)
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--capacity", type=int)
    throws = p.add_mutually_exclusive_group()
    throws.add_argument("--throws", help="heights=h1,h2,... restriction")
    throws.add_argument("--throws-file", help="file of time:height lines")
    p.set_defaults(handler=_cmd_js)

    # An action's flags go on its own parser, so a flag of the other
    # action is a usage error rather than a silently ignored value.
    actions = sub.add_parser("bijection", help="verify or apply the partition/sequence map"
                             ).add_subparsers(dest="action", required=True)
    p = actions.add_parser("roundtrip", parents=[common], help="check both directions")
    p.add_argument("--weight-eps", required=True)
    p.add_argument("--roots")
    p.add_argument("--capacity", type=int)
    p.set_defaults(handler=_cmd_roundtrip)
    p = actions.add_parser("to-juggling", parents=[common], help="map a partition file")
    p.add_argument("--partition", required=True)
    p.add_argument("--initial", required=True)
    p.add_argument("--length", required=True, type=int)
    p.set_defaults(handler=_cmd_to_juggling)

    actions = sub.add_parser("bcd", help="type B/C/D counts and maps"
                             ).add_subparsers(dest="action", required=True)
    p = actions.add_parser("count", parents=[common], help="count by several methods")
    p.add_argument("--type", required=True, choices=("B", "C", "D"))
    p.add_argument("--rank", required=True, type=int)
    weight = p.add_mutually_exclusive_group(required=True)
    weight.add_argument("--highest-root", action="store_true")
    weight.add_argument("--weight-alpha")
    weight.add_argument("--weight-eps")
    p.add_argument("--method", choices=("oracle", "juggling", "schmidt-bincer", "all"),
                   default="all")
    p.set_defaults(handler=_cmd_bcd_count)
    p = actions.add_parser("map", parents=[common], help="map a partition file to type A")
    p.add_argument("--which", required=True, choices=("b2a", "c2a"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--partition", required=True)
    p.set_defaults(handler=_cmd_bcd_map)

    p = sub.add_parser("poset", parents=[quiet], help="juggling poset characteristic polynomial")
    p.add_argument("action", choices=("charpoly",))
    p.add_argument("--initial", required=True)
    p.add_argument("--terminal", required=True)
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--capacity", type=int)
    # the cover graph has no JSON form
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit canonical JSON")
    output.add_argument("--dot", action="store_true", help="emit the cover graph instead")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("permdet", parents=[common],
                       help="permanent/determinant count for restricted roots")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--roots", help="file of allowed roots (default: all)")
    p.set_defaults(handler=_cmd_permdet)

    p = sub.add_parser("lidskii", parents=[common], help="weighted expansion of a count")
    p.add_argument("--weight-eps", required=True)
    p.add_argument("--variant", choices=("binomial", "multiset", "both"), default="both")
    p.set_defaults(handler=_cmd_lidskii)

    p = sub.add_parser("gf", parents=[common], help="periodic-count generating functions")
    p.add_argument("--row", required=True)
    p.add_argument("--upto", required=True, type=int)
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("closedform", parents=[common], help="surd closed forms by recurrence")
    p.add_argument("--which", required=True, choices=sorted(CLOSED_FORMS))
    p.add_argument("--r", required=True, type=int)
    p.set_defaults(handler=_cmd_closedform)

    p = sub.add_parser("catalan", parents=[common], help="staircase Catalan-product identity")
    p.add_argument("--r", required=True, type=int)
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("ehrhart", parents=[common], help="dilation-count polynomial fit")
    p.add_argument("--weight-eps", required=True)
    p.add_argument("--extra", type=int, default=2)
    p.set_defaults(handler=_cmd_ehrhart)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")
    p.set_defaults(handler=_cmd_selftest)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first dispatch rather than at import."""
    return build_parser()


def dispatch(argv) -> int:
    """Run one command and print its result; returns the process exit status."""
    try:
        args = _parser().parse_args(_join_negative_lists(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload, lines = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(payload)
    else:
        for line in lines:
            if not (args.quiet and line.startswith("# ")):
                print(line)
    return code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): point it at devnull so the
        # flush at exit cannot raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
