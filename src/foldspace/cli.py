"""Command-line interface.

Exit codes: 0 success, 2 validation or format failure, 3 budget refusal,
4 file-system error.  Reports are deterministic JSON (default) or CSV for
the tabular subcommands.
"""

import argparse
import math
import sys
from fractions import Fraction

from .cones import current_cone, ergodicity_verdict, length_cone
from .decomposition import (recurrence_check, structural_sanity,
                            transverse_decomposition_folding,
                            transverse_decomposition_unfolding)
from .errors import BudgetExceededError, FoldspaceError, FormatError
from .examples import _block_schedule, gen_example
from .io_formats import _fraction, parse_graph, parse_sequence
from .lamination import _language
# unused here, but kept as module globals: the traced benchmark run
# (perfbench/traced.py) wraps each ``cli`` global it names in a span
from .decomposition import moduli_window  # noqa: F401
from .lamination import (allowed_words, complexity_profile,  # noqa: F401
                         minimal_components)
from .linalg import frac_log
from .metric import (ff_progress_diagnostic, linearity_and_speed,
                     lipschitz_bruteforce, lipschitz_distance, thickness)
from .reports import dumps_csv, dumps_json, write_text
from .sequences import (_level_count, current_track_from_initial,
                        decay_check, frequency_current, is_reduced_window,
                        length_track_from_terminal, simplicial_length_measure)
from .walk import ExperimentConfig, run_walk


def _fraction_arg(text):
    try:
        return _fraction(text)
    except FormatError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") \
            from None


def _tolerance_arg(text):
    """A cone tolerance: a finite nonnegative float.  NaN, an infinity or
    a negative value gives no meaningful verdict, so it is refused (exit
    2), as ``_fraction_arg`` refuses a bad rational."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan          # refused below, with the same message
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"not a finite nonnegative tolerance: {text!r}")
    return tol


def _threshold_arg(text):
    """A decomposition threshold or pinch tolerance: a nonnegative rational.
    A negative one makes the threshold gate vacuous, or pinches no edge; it
    is refused (exit 2), as ``_tolerance_arg`` refuses a negative tolerance."""
    eps = _fraction_arg(text)
    if eps < 0:
        raise argparse.ArgumentTypeError(
            f"not a nonnegative rational: {text!r}")
    return eps


def _bounds(text, name, form, counts):
    """The integers of ``text`` split at colons, ``counts`` of them, for
    the option ``name`` written as ``form``."""
    parts = text.split(":")
    if len(parts) not in counts:
        raise FormatError(f"{name} must be {form}, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"{name} bounds must be integers: {text!r}") from exc


def _parse_window(text):
    n0, n1 = _bounds(text, "window", "n0:n1", (2,))
    if n1 <= n0:
        raise FormatError("window must satisfy n0 < n1")
    return n0, n1


def _parse_levels(text, seq):
    if text is None:
        stride = max(1, seq.n_steps // 200)
        return seq.levels[:-1][::stride]
    nums = _bounds(text, "levels", "n0:n1[:stride]", (2, 3))
    stride = nums[2] if len(nums) == 3 else 1
    if stride < 1:
        raise FormatError("stride must be >= 1")
    if nums[1] < nums[0]:
        raise FormatError("levels must satisfy n0 <= n1")
    levels = range(nums[0], nums[1] + 1, stride)
    # ``_internal`` refuses the first requested level outside the sequence
    seq._internal(levels[0])
    last = seq.levels[-1]
    if levels[-1] > last:
        seq._internal(last + stride - (last - levels[0]) % stride)
    return levels


# -- subcommands ---------------------------------------------------------


def _cmd_gen(args):
    if args.format == "csv":    # refused before any file is written
        raise FormatError("gen has no CSV form")
    kwargs = {"direction": args.direction}
    if args.name == "fibonacci":
        kwargs["steps"] = args.steps
    else:                   # the parser admits only these two names
        kwargs["rank"] = args.rank
        if args.schedule is not None:
            try:
                kwargs["schedule"] = _block_schedule(
                    map(int, args.schedule.split(",")))
            except (ValueError, FormatError) as exc:
                raise FormatError(f"bad schedule {args.schedule!r}") from exc
    ex = gen_example(args.name, **kwargs)
    path = ex.write(args.out_dir)
    return {"sequence_file": path, "notes": ex.notes}, None


def _cmd_fold(args):
    seq = parse_sequence(args.sequence)
    if seq.direction == "unfolding":
        track = simplicial_length_measure(seq)
        decay = decay_check(seq, length_track=track)
    else:
        track = frequency_current(seq)
        decay = decay_check(seq, current_track=track)
    levels = seq.levels
    report = {
        "direction": seq.direction,
        "n_steps": seq.n_steps,
        "levels": [levels[0], levels[-1]],
        "validated": True,
        "taken_turns_final": len(seq.taken_turns_at(levels[-1])),
        "decay_flags": decay["flags"],
    }
    if args.window:
        report["reduced_window"] = is_reduced_window(
            seq, _parse_window(args.window))
    return report, (("level", "log_extreme"), _log_maxima(track, levels))


def _log_maxima(track, levels):
    """(level, log of the largest entry) rows of the ``fold`` CSV, where
    ``levels`` are all the track's levels, in order: the track's sweep from
    its seed keeps only a float per level.  A generator function, so the
    sweep runs only when the CSV form is written."""
    logs = (frac_log(x) if x > 0 else float("-inf")
            for x in (max(v) for _, v in track._sweep(track._seed)))
    yield from zip(levels, logs if track._sign > 0 else reversed(list(logs)))


def _cmd_cone(args):
    seq = parse_sequence(args.sequence)
    if seq.direction == "unfolding":
        cone = current_cone(seq, args.depth, tol=args.tol)
    else:
        cone = length_cone(seq, args.depth, tol=args.tol)
    verdict = ergodicity_verdict(cone, tol=args.tol)
    report = {"cone": cone, "verdict": verdict}
    rows = list(cone.diameter_profile)
    return report, (("depth", "diameter"), rows)


def _cmd_lamination(args):
    seq = parse_sequence(args.sequence)
    depths = sorted({max(1, args.depth // 4), max(1, args.depth // 2),
                     args.depth})
    # one walk serves the words, the complexity table and the components
    lang, profile, comps = _language(seq, args.depth, args.length,
                                     args.source, depths=depths,
                                     components=True)
    g0 = seq.graph_at(seq.levels[-1])
    report = {
        "depth": args.depth,
        "L": args.length,
        "count": lang.count,
        "words": sorted(" ".join(g0.tokens(w)) for w in lang.words),
        "complexity": profile,
        "minimal_components": comps,
    }
    rows = [(L, profile.counts[L]) for L in sorted(profile.counts)]
    return report, (("L", "count"), rows)


def _cmd_decompose(args):
    seq = parse_sequence(args.sequence)
    if args.pinch_tol is not None and seq.direction == "folding":
        # the moduli window that reads it exists on unfolding sequences only
        raise FormatError("--pinch-tol applies to unfolding sequences only; "
                          f"{args.sequence} is a folding sequence")
    window = seq._window(*_parse_window(args.window))
    if _level_count(window) < 4:
        raise FormatError("window covers fewer than 4 levels")
    deep_graph = seq.graph_at(seq.levels[0] if seq.direction == "unfolding"
                              else seq.levels[-1])
    if args.seeds is not None:
        names = args.seeds.split(",")
        unknown = [name for name in names if name not in deep_graph.edge_ids]
        if unknown:
            raise FormatError(f"unknown seed edges {unknown}")
        seeds = [[1 if e == name else 0 for e in deep_graph.edge_ids]
                 for name in names]
    else:
        seeds = [[1] * deep_graph.n_edges]
    if seq.direction == "unfolding":
        lam = simplicial_length_measure(seq)
        tracks = [current_track_from_initial(seq, s) for s in seeds]
        decomp = transverse_decomposition_unfolding(
            seq, tracks, window, eps_rel=args.eps)
        # the one moduli window of the job is the recurrence check's
        rec = recurrence_check(seq, lam, [window], pinch_tol=args.pinch_tol)
        pinched = rec.pinched_by_window[0][1]
        report = {"decomposition": decomp, "pinched": list(pinched),
                  "recurrence": rec,
                  "sanity": structural_sanity(
                      decomp, seq.graph_at(window[0]), pinched)}
    else:
        tracks = [length_track_from_terminal(seq, s) for s in seeds]
        decomp = transverse_decomposition_folding(
            seq, tracks, window, eps_rel=args.eps)
        report = {"decomposition": decomp}
    rows = [(f"H{i}", " ".join(sorted(part)))
            for i, part in enumerate(decomp.parts)]
    rows.append(("undecided", " ".join(sorted(decomp.undecided))))
    return report, (("part", "edges"), rows)


def _cmd_distance(args):
    T = parse_graph(args.graph1)
    U = parse_graph(args.graph2)
    fwd = lipschitz_distance(T, U)
    back = lipschitz_distance(U, T)
    report = {
        "forward": {"distance": fwd.distance, "ratio": fwd.ratio,
                    "witness": " ".join(T.graph.tokens(fwd.witness.path))},
        "backward": {"distance": back.distance, "ratio": back.ratio,
                     "witness": " ".join(U.graph.tokens(back.witness.path))},
        "symmetric": fwd.distance + back.distance,
        "thickness": [thickness(T), thickness(U)],
    }
    if args.bruteforce is not None:
        bf = lipschitz_bruteforce(T, U, args.bruteforce)
        report["bruteforce"] = bf
        report["agrees"] = bf.ratio == fwd.ratio
    rows = [("forward", fwd.distance), ("backward", back.distance)]
    return report, (("direction", "distance"), rows)


def _cmd_progress(args):
    seq = parse_sequence(args.sequence)
    levels = _parse_levels(args.levels, seq)
    diag = ff_progress_diagnostic(seq, levels)
    report = {"progress": diag}
    if args.speed:
        report["speed"] = linearity_and_speed(seq)
    rows = list(zip(diag.levels, diag.horizons))
    return report, (("level", "horizon"), rows)


def _cmd_walk(args):
    config = ExperimentConfig(seed=args.seed, steps=args.steps)
    record = run_walk(config)
    rows = enumerate(record.displacement)   # read once, by the CSV writer
    return {"walk": record}, (("step", "displacement"), rows)


# -- parser --------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="foldspace",
        description="Folding/unfolding sequence analysis on marked "
                    "metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gen", help="generate a canned example")
    p.add_argument("name", choices=("fibonacci", "alternating_block"))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--schedule", help="comma-separated block lengths")
    p.add_argument("--direction", choices=("folding", "unfolding"),
                   default="unfolding")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fold", help="validate a sequence and report decay")
    p.add_argument("sequence")
    p.add_argument("--window", help="n0:n1 for the reducedness search")
    common(p)
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("cone", help="nested cone diameters and verdict")
    p.add_argument("sequence")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tol", type=_tolerance_arg, default=1e-8)
    common(p)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("lamination", help="allowed words and components")
    p.add_argument("sequence")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--length", type=int, required=True,
                   help="window length L")
    p.add_argument("--source", choices=("taken", "legal"), default="taken")
    common(p)
    p.set_defaults(func=_cmd_lamination)

    p = sub.add_parser("decompose", help="transverse decomposition")
    p.add_argument("sequence")
    p.add_argument("--window", required=True, help="n0:n1 (use --window=)")
    p.add_argument("--eps", type=_threshold_arg, default=Fraction(1, 1000))
    p.add_argument("--pinch-tol", type=_threshold_arg, default=None,
                   help="moduli-window pinch tolerance (unfolding only)")
    p.add_argument("--seeds", help="comma-separated seed edges, one "
                                   "measure per edge")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("distance", help="stretch distances between two "
                                        "marked graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--bruteforce", type=int,
                   help="cross-check over words up to this length")
    common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("progress", help="non-filling witness horizons")
    p.add_argument("sequence")
    p.add_argument("--levels", help="n0:n1[:stride]")
    p.add_argument("--speed", action="store_true",
                   help="include the linear-speed report")
    common(p)
    p.set_defaults(func=_cmd_progress)

    p = sub.add_parser("walk", help="seeded random walk")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=2000)
    common(p)
    p.set_defaults(func=_cmd_walk)

    return parser


_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:         # argparse reads ``--name=--`` as no value
            _PARSER.error(f"argument --{name.replace('_', '-')}: expected "
                          "one argument")
    try:
        report, csv_data = args.func(args)
        if args.format == "csv":
            text = dumps_csv(*csv_data)
        else:
            text = dumps_json(report)
        write_text(text, args.out)
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except FoldspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
