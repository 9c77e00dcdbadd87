"""Command-line surface: bound tables, LP verification reports, phenomenon
transforms and SVG interval charts.

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 verification failure,
5 I/O error.  Any error writing standard output, an encoding error included,
ends the run with exit 5 and one `error:` line; a reader that closes it early
(`halfrare bounds ... | head -2`) does so silently.  `guard_stdout`, shared
with the README scripts, then points stdout at devnull, as the "Note on
SIGPIPE" in the Python `signal` docs advises, so the interpreter's last flush
does not fail again.  `main(argv)`
can be called repeatedly in one process: it builds its parser on the first
call and keeps it, as parsing leaves a parser unchanged.

Bound tables are written in every format as one block of 2^(N//2) rows per
write, built from the label tables of the low N//2 and the high N - N//2
events, so no 2^N-entry label table exists.  Only the star column is
formatted per row, one block at a time, from the integer numerators of
`independent_epd` over their one denominator.  The lower and upper columns
take at most N+4 distinct values, and `boundary_distributions` is handed the
formatter so that it formats each of them once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from decimal import Decimal
from typing import Callable, Iterator, Sequence

from . import bounds as _bounds
from . import figure as _figure
from . import oracle as _oracle
from . import transforms as _transforms
from .core import (
    DEFAULT_DIGITS,
    MarginalSet,
    check_event_count,
    default_event_set,
    format_decimal,
    format_exact,
    indicator_string,
    make_event_set,
    parse_probability,
    validate_marginals,
)
from .errors import EventologyError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VERIFY = 4
EXIT_IO = 5

#: Largest --digits: Python's smallest settable integer string limit, so a
#: decimal never trips the limit; --exact gives full precision.
MAX_DIGITS = 640


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_document(path: str) -> tuple[list[str], list]:
    """The labels and the probability items of a JSON input document."""
    try:
        with open(path, encoding="utf-8") as f:
            # Decimal keeps a JSON number's own digits: a float would round them.
            doc = json.load(f, parse_float=Decimal)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read {path}: {e}")
    except (ValueError, RecursionError) as e:
        # Bad JSON syntax, bytes that are not UTF-8, or nesting too deep.
        raise CliError(EXIT_PARSE, f"invalid JSON in {path}: {e}")
    if not (
        isinstance(doc, dict)
        and isinstance(labels := doc.get("events"), list)
        and all(isinstance(lab, str) for lab in labels)
        and isinstance(items := doc.get("probabilities"), list)
    ):
        raise CliError(
            EXIT_PARSE,
            'malformed input document: "events" must be a list of strings '
            'and "probabilities" a list',
        )
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as e:
        raise CliError(EXIT_PARSE, f"malformed input document: an event label is not text: {e}")
    return labels, items


def _load_marginals(args: argparse.Namespace) -> MarginalSet:
    if args.input is None:
        labels, items = None, args.probs.split(",")
    else:
        labels, items = _read_document(args.input)
    # Before any item is parsed, so an oversized input fails fast.
    check_event_count(len(items))
    probs = []
    for i, t in enumerate(items):
        try:
            probs.append(parse_probability(str(t)))
        except ValueError as e:
            raise CliError(EXIT_PARSE, f"cannot parse probability #{i}: {e}")
    events = default_event_set(len(probs)) if labels is None else make_event_set(labels)
    return validate_marginals(events, probs)


def _exact_den(d: int) -> int:
    """d, a common denominator of an exact output, if its digits fit Python's int string limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before 3.10.7
    if limit and d.bit_length() > 3 * limit and d >= 10**limit:  # 10**limit has > 3 limit bits
        raise CliError(EXIT_VALIDATION, f"exact output exceeds the {limit}-digit integer string limit")
    return d


def _fmt(args: argparse.Namespace, m: MarginalSet) -> tuple[Callable, int]:
    """The column formatter (numerators, their denominator -> texts) and its longest
    text's length for `m`: each value is in [0, 1], over a divisor of d = prod den(p)."""
    if args.exact:
        d = _exact_den(math.prod(p.denominator for p in m.probs))
        return format_exact, len(f"{d - 1}/{d}")
    digits = DEFAULT_DIGITS if args.digits is None else args.digits
    return lambda nums, den: format_decimal(nums, den, digits), len("0.") + digits


def _half_table(labels: Sequence[str], sep: str) -> tuple[list[str], list[str]]:
    """The indicator strings, and the labels in X joined by `sep`, of every subset
    X of `labels` in ascending bitmask order, by doubling: one event at a time,
    its column gets "0" or "1" and its label joins every nonempty subset."""
    words, joined = [""], [""]
    for lab in labels:
        words = [w + bit for bit in "01" for w in words]
        # By subset, not by string: a label may be "".
        joined += [j + sep + lab if x else lab for x, j in enumerate(joined)]
    return words, joined


def _bound_rows(
    m: MarginalSet, fmt: Callable[[Sequence[int], int], list[str]], labels: Sequence[str], sep: str
) -> Iterator[tuple[str, str, Iterator[tuple[str, str, str, str, str]]]]:
    """Every subset's row in ascending bitmask order, in one block per subset
    of the high N - h events, h = N // 2: its indicator string, its label tail
    and its 2^h rows (low indicator string, label head, lower, star, upper).
    A row's subset is the low string then the block's, its labels the head
    then the tail; `labels` names the events as the writer prints them."""
    bd = _bounds.boundary_distributions(m, lambda q: fmt((q.numerator,), q.denominator)[0])
    star = _transforms.independent_epd(m)
    lower, nums, den, upper = bd.lower, star.numerators, star.den, bd.upper
    h = len(labels) // 2
    low_words, low_labels = _half_table(labels[:h], sep)
    # A head meets a nonempty tail with `sep`, except the empty set's head.
    heads = ["", *(labs + sep for labs in low_labels[1:])]
    size = len(low_words)
    for x_high, (word, tail) in enumerate(zip(*_half_table(labels[h:], sep))):
        cells = slice(x_high * size, (x_high + 1) * size)
        yield word, tail, zip(low_words, heads if x_high else low_labels,
                              lower[cells], fmt(nums[cells], den), upper[cells])


def _csv_field(text: str) -> str:
    """`text` as csv.writer quotes it by default: in quotes, with each quote
    doubled, if it holds a comma or a quote.  A label never holds CR or LF."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


#: Between two label items of a JSON row, as json.dump(..., indent=2) puts them.
_JSON_ITEM_SEP = ",\n        "


def cmd_bounds(args: argparse.Namespace) -> int:
    m = _load_marginals(args)
    fmt, widest = _fmt(args, m)
    out = sys.stdout
    if args.format == "json":
        # The bytes of json.dump({"N": n, "rows": [...]}, indent=2), written
        # block by block; labels are escaped once, by the C encoder.
        escaped = [json.dumps(lab) for lab in m.events.labels]
        out.write(f'{{\n  "N": {m.n},\n  "rows": [\n')
        for x_high, (word, tail, rows) in enumerate(_bound_rows(m, fmt, escaped, _JSON_ITEM_SEP)):
            text = ",\n".join(
                f'    {{\n      "subset": "{w}{word}",\n      "labels": [\n        {head}{tail}\n'
                f'      ],\n      "lower": "{lower}",\n      "star": "{star}",\n'
                f'      "upper": "{upper}"\n    }}'
                for w, head, lower, star, upper in rows
            )
            # An escaped label is never "", so only the empty set, the first
            # row, has no label items.
            out.write(",\n" + text if x_high else text.replace("[\n        \n      ]", "[]", 1))
        out.write("\n  ]\n}\n")
    elif args.format == "csv":
        out.write("subset,labels,lower,star,upper\n")
        for word, tail, rows in _bound_rows(m, fmt, m.events.labels, "+"):
            out.write("".join(
                f"{w}{word},{_csv_field(head + tail)},{lower},{star},{upper}\n"
                for w, head, lower, star, upper in rows
            ))
    else:
        # At least 12 wide: the labels column fits the full set's label string,
        # the longest one, and a value column the longest value text.
        width, v = max(12, len("+".join(m.events.labels)) + 2), max(12, widest)
        # The subset column fits "subset" and an indicator string, then a space.
        line = f"{{:<{max(m.n + 3, 7)}}}{{:<{width}}} {{:>{v}}} {{:>{v}}} {{:>{v}}}\n".format
        out.write(line("subset", "labels", "lower", "star", "upper"))
        for word, tail, rows in _bound_rows(m, fmt, m.events.labels, "+"):
            out.write("".join(line(w + word, head + tail, lower, star, upper)
                              for w, head, lower, star, upper in rows))
    return EXIT_OK


def _report_dict(report: _oracle.VerificationReport) -> dict:
    n = report.marginals.n
    return {
        "N": n,
        "probabilities": [str(p) for p in report.marginals.probs],
        "verdict": "pass" if report.verdict else "fail",
        "subsets": [
            {
                "subset": indicator_string(r.subset, n),
                "closed_form_lower": str(r.closed_form_lower),
                "lp_min": str(r.lp_min),
                "closed_form_upper": str(r.closed_form_upper),
                "lp_max": str(r.lp_max),
                "witness_min": format_exact(r.witness_min.numerators, r.witness_min.den),
                "witness_max": format_exact(r.witness_max.numerators, r.witness_max.den),
            }
            for r in report.records
        ],
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random:
        n = 3 if args.n is None else args.n
        seed = 0 if args.seed is None else args.seed
        # Drawn one at a time, so an N over the LP cap fails at the first set.
        instances = (
            _oracle.random_marginals(n, seed + k, half_rare=args.half_rare)
            for k in range(args.random)
        )
    elif args.n is not None or args.half_rare or args.seed is not None:
        raise CliError(EXIT_PARSE, "--n, --half-rare and --seed need --random K with K >= 1")
    else:
        instances = [_load_marginals(args)]
    # json.dump(reports, indent=2)'s bytes, each report as soon as it is made.
    error = None
    for k, r in enumerate(map(_oracle.verify_bounds, instances)):
        # Every denominator in a report divides one of its witnesses'.
        _exact_den(max(w.den for s in r.records for w in (s.witness_min, s.witness_max)))
        report = json.dumps(_report_dict(r), indent=2).replace("\n", "\n  ")
        sys.stdout.write((",\n  " if k else "[\n  ") + report)
        sys.stdout.flush()
        bad = r.first_mismatch()
        if error is None and bad is not None:
            error = CliError(
                EXIT_VERIFY,
                f"sharpness mismatch at subset {indicator_string(bad.subset, r.marginals.n)}: "
                f"closed-form [{bad.closed_form_lower}, {bad.closed_form_upper}] vs "
                f"LP [{bad.lp_min}, {bad.lp_max}]",
            )
    sys.stdout.write("\n]\n")
    if error is not None:
        raise error
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    m = _load_marginals(args)
    svg = _figure.render_figure(m)
    try:
        with open(args.out, "w") as f:
            f.write(svg)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {args.out}: {e}")
    return EXIT_OK


def cmd_phenomenon(args: argparse.Namespace) -> int:
    m = _load_marginals(args)
    kept_labels = [t for t in args.kept.split(",") if t]
    if len(set(kept_labels)) != len(kept_labels):
        raise CliError(EXIT_VALIDATION, f"repeated event label in --kept: {args.kept!r}")
    kept = 0
    for lab in kept_labels:
        if lab not in m.events.labels:
            raise CliError(EXIT_VALIDATION, f"unknown event label in --kept: {lab!r}")
        kept |= 1 << m.events.labels.index(lab)
    transformed = _transforms.PhenomenonMap(kept, tuple(range(m.n))).map_marginals(m)
    # Complementing p_c and renumbering X -> X xor C leave every bound
    # unchanged, so the transformed table is the table of the transformed
    # marginals.
    fmt = _fmt(args, transformed)[0]
    out = sys.stdout
    out.write("marginals: " + ", ".join(
        f"{lab}={fmt((p.numerator,), p.denominator)[0]}"
        for lab, p in zip(transformed.events.labels, transformed.probs)
    ) + "\n")
    out.write("subset labels lower star upper\n")
    for word, tail, rows in _bound_rows(transformed, fmt, transformed.events.labels, "+"):
        out.write("".join(
            f"{w}{word} {head + tail or '-'} {lower} {star} {upper}\n"
            for w, head, lower, star, upper in rows
        ))
    return EXIT_OK


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def digit_count(text: str) -> int:
    value = non_negative_int(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DIGITS}, got {value}; use --exact")
    return value


def _add_input_args(p: argparse.ArgumentParser):
    """-p and -i, in a group that needs exactly one of its options; returned
    so that `verify` can add --random to it."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("-p", "--probs",
                        help="comma list of probabilities, events auto-named x1..xN")
    source.add_argument("-i", "--input", help="JSON file with events and probabilities")
    return source


def _add_number_args(p: argparse.ArgumentParser) -> None:
    # No argparse default: the group's check skips a value that is the default
    # object, as a small int is, so `--digits 6 --exact` would pass.
    number = p.add_mutually_exclusive_group()
    number.add_argument("--exact", action="store_true", help="print fractions instead of decimals")
    number.add_argument("--digits", type=digit_count,
                        help=f"decimal rendering digits, 0..{MAX_DIGITS}, default {DEFAULT_DIGITS}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfrare",
        description="Fréchet bounds of the 1st kind for finite event sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="per-subset lower/independent/upper table")
    _add_input_args(p)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    _add_number_args(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="LP sharpness verification report")
    _add_input_args(p).add_argument(
        "--random", type=positive_int, metavar="K",
        help="verify K randomly drawn marginal sets instead of one input")
    p.add_argument("--n", type=positive_int, help="event count for --random, default 3")
    p.add_argument("--half-rare", action="store_true", help="draw half-rare marginals for --random")
    p.add_argument("--seed", type=int, help="first seed for --random, default 0")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="render the interval chart as SVG")
    _add_input_args(p)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("phenomenon", help="complement events outside a kept set")
    _add_input_args(p)
    _add_number_args(p)
    p.add_argument("--kept", required=True,
                   help="labels left uncomplemented, split on commas; empty items dropped")
    p.set_defaults(func=cmd_phenomenon)

    return parser


_parser = functools.cache(build_parser)


def guard_stdout(run: Callable[[], int]) -> int:
    """run()'s exit code, once stdout is flushed; EXIT_IO on an error writing it."""
    if sys.stdout is None:
        # None when fd 1 was closed at start: an unwritable stream makes prints fail.
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), closefd=False)
    try:
        code = run()
        sys.stdout.flush()
        return code
    except (OSError, UnicodeEncodeError) as e:
        # Labels are checked as UTF-8 text when read, so an encoding error can
        # only come from a stdout that cannot encode one.  Keep the final flush
        # from failing again.  A closed pipe: no message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write standard output: {e}", file=sys.stderr)
        return EXIT_IO


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # The commands turn every I/O error but writing stdout into a CliError.
        return guard_stdout(lambda: args.func(args))
    except (CliError, EventologyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
