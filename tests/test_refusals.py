"""Requests the command line refuses before any work: decomposition windows
outside the stored levels or past ``sequences.WINDOW_BIT_BUDGET``, progress
levels outside them or past ``metric.MAX_LEVELS`` (also past sys.maxsize
levels), cone depths outside them, malformed window and level bounds,
negative pinch tolerances, rationals with an exponent past the int digit
limit, input files that are not UTF-8, brute-force lengths past the word
budget, block schedules with no entry or one below 1, ``gen`` in CSV
form, seed edges the deep graph lacks, walks of fewer than 2 or more than
``walk.MAX_STEPS`` steps, and chains of no step or of a rank with no
alternating blocks.  Each exits with its documented code and message, and
``gen`` writes no file."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, examples, gen_fibonacci, metric,
                       sequences, simplicial_length_measure, walk)
from foldspace.decomposition import moduli_window, recurrence_check
from foldspace.cli import main
from foldspace.errors import BudgetExceededError, FormatError, SequenceError
from foldspace.io_formats import _fraction, parse_sequence
from foldspace.sequences import (CARRY_BIT_BUDGET, _capped_sum,
                                 _check_window_bits, _level_count,
                                 current_track_from_initial,
                                 length_track_from_terminal)

from test_runs import _RUN_POOLS

HUGE = 10 ** 13
DEEP = 10 ** 20         # past sys.maxsize, where len() of a range overflows


def _gen(tmp_path, *args):
    assert main(["gen", *args, "--out-dir", str(tmp_path)]) == 0
    return next(str(p) for p in tmp_path.iterdir()
                if p.name.endswith(".sequence"))


def _huge(tmp_path, direction="folding", steps=HUGE):
    """A Fibonacci chain of ``steps`` steps (10^13 by default), as one
    run."""
    path = _gen(tmp_path, "fibonacci", "--steps", "1", "--direction",
                direction)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("fibonacci_step0.morphism\n",
                              f"fibonacci_step0.morphism x{steps}\n"))
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:        # argparse refusals
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """The canned 40-step Fibonacci unfolding chain, a 12-step folding
    one, and the rank-4 unfolding blocks with schedule 3,3,3."""
    out = tmp_path_factory.mktemp("chains")
    paths = {}
    for key, args in (("fib40", ("fibonacci",)),
                      ("fib12", ("fibonacci", "--steps", "12",
                                 "--direction", "folding")),
                      ("alt4", ("alternating_block", "--rank", "4",
                                "--schedule", "3,3,3"))):
        (out / key).mkdir()
        with redirect_stdout(io.StringIO()):
            paths[key] = _gen(out / key, *args)
    return paths


# -- decomposition windows -------------------------------------------------


@pytest.mark.parametrize("window", ["-100:0", "-5:5", "-41:-30", "0:1"])
def test_decompose_window_outside_the_levels_exits_2(chains, window):
    """A window is refused as ``fold --window`` refuses it, where it was
    cut down to the stored levels (-100:0 reported -40..0, -5:5 -5..0)."""
    rc, out, err = _run(["decompose", chains["fib40"], f"--window={window}"])
    n0, n1 = map(int, window.split(":"))
    assert (rc, out) == (2, "")
    assert err == f"error: window {(n0, n1)} outside the sequence range\n"
    assert _run(["fold", chains["fib40"], f"--window={window}"]) == \
        (rc, out, err)


def test_decompose_window_inside_the_levels_still_runs(chains):
    rc, out, _ = _run(["decompose", chains["fib40"], "--window=-40:0"])
    assert rc == 0
    assert json.loads(out)["decomposition"]["window"] == list(range(-40, 1))


def test_decompose_window_past_a_10_13_step_chain_exits_2(tmp_path):
    """The window check reads two levels of the slice, so it refuses at
    once where listing the clipped window ran out of memory."""
    rc, out, err = _run(["decompose", _huge(tmp_path),
                         f"--window=0:{2 * HUGE}"])
    assert (rc, out) == (2, "")
    assert err == (f"error: window (0, {2 * HUGE}) outside the sequence "
                   "range\n")


@settings(max_examples=150, deadline=None)
@given(n0=st.integers(-50, 5), n1=st.integers(-50, 5))
def test_decompose_window_fuzz(chains, n0, n1):
    """Every window exits 0 or 2; a refused one names the window as the
    reducedness search does, and an accepted one reports exactly it."""
    path = chains["fib40"]
    rc, out, err = _run(["decompose", path, f"--window={n0}:{n1}"])
    if n1 <= n0:
        assert (rc, err) == (2, "error: window must satisfy n0 < n1\n")
    elif n0 < -40 or n1 > 0:
        assert (rc, err) == (
            2, f"error: window {(n0, n1)} outside the sequence range\n")
    elif n1 - n0 < 3:
        assert (rc, err) == (2, "error: window covers fewer than 4 levels\n")
    else:
        assert rc == 0
        assert json.loads(out)["decomposition"]["window"] == \
            list(range(n0, n1 + 1))
        return
    assert out == ""


# -- window bits -----------------------------------------------------------


def _window_message(n0, n1, bits):
    return (f"budget: the levels {n0}..{n1} could keep {bits} bits of exact "
            "vectors, past the limit of 500000000 bits "
            "(sequences.WINDOW_BIT_BUDGET)\n")


@pytest.mark.parametrize("steps,direction,n0,n1,bits", [
    (10 ** 6, "folding", 0, 20000, 40002160008),
    (200000, "unfolding", -20000, 0, 8000560008)])
def test_wide_decompose_window_is_refused_before_any_carry(
        tmp_path, monkeypatch, steps, direction, n0, n1, bits):
    """Each window level keeps exact vectors of about a bit per step from
    the seed, so these windows ran out of memory (a MemoryError traceback
    after 3.1 s under a 1 GiB cap); their bound is refused first."""
    path = _gen(tmp_path, "fibonacci", "--steps", str(steps),
                "--direction", direction)
    carries = []
    carry = FoldingSequence._carry

    def recording(self, vectors, kind, start, count, stops=()):
        carries.append(count)
        return carry(self, vectors, kind, start, count, stops)

    monkeypatch.setattr(FoldingSequence, "_carry", recording)
    rc, out, err = _run(["decompose", path, f"--window={n0}:{n1}"])
    assert (rc, out, carries) == (3, "", [])
    assert err == _window_message(n0, n1, bits)


def test_library_moduli_windows_are_bounded_before_any_carry(monkeypatch):
    """``moduli_window`` and ``recurrence_check``, called on their own, read
    the length track under the same bound: the deep end of a 200000-step
    unfolding chain ran past a minute under a 1 GiB cap."""
    seq = gen_fibonacci(steps=200000, direction="unfolding").sequence
    lam = simplicial_length_measure(seq)
    carries = []
    monkeypatch.setattr(FoldingSequence, "_carry",
                        lambda *args: carries.append(args))
    window = range(-200000, -180000)
    for call in (lambda: moduli_window(seq, lam, window),
                 lambda: recurrence_check(seq, lam, [window])):
        with pytest.raises(BudgetExceededError) as info:
            call()
        assert str(info.value) == _window_message(
            -200000, -180001, 7600100000)[len("budget: "):-1]
    assert carries == []


@pytest.mark.parametrize("direction,level,window", [
    ("folding", 10 ** 12, "1..1000000000000"),
    ("unfolding", -10 ** 12, "-1000000000000..-1")])
def test_single_read_far_from_a_kept_vector_is_refused_at_once(
        direction, level, window):
    """``at`` keeps every level between the nearest kept vector and the
    level it reads, so those levels are bounded first, as a window read's
    are: on the 10^13-step chain, a read 10^12 levels from the seed did
    not return within 10 s, stepping back one level at a time to find the
    kept vector, and nothing is kept."""
    seq = FoldingSequence.from_runs([(examples.fibonacci_step(), HUGE)],
                                    direction)
    track = current_track_from_initial(seq, [1, 1]) \
        if direction == "folding" else simplicial_length_measure(seq)
    kept = dict(track._known)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        track.at(level)
    assert time.perf_counter() - start < 1.0
    assert str(info.value).startswith(f"the levels {window} could keep ")
    assert str(info.value).endswith("(sequences.WINDOW_BIT_BUDGET)")
    assert track._known == kept


@pytest.mark.parametrize("direction,level,window", [
    ("folding", 60000, (1, 60000)), ("unfolding", -60000, (-60000, -1))])
def test_single_read_of_a_wide_stretch_is_refused_with_the_window_message(
        direction, level, window):
    """A read 60000 levels from the seed of a 60000-step Fibonacci chain
    kept every level in between: 3.9 s and 331 MiB for the frequency
    current.  Its levels could keep 3600300000 bits."""
    seq = gen_fibonacci(steps=60000, direction=direction).sequence
    track = current_track_from_initial(seq, [1, 1]) \
        if direction == "folding" else simplicial_length_measure(seq)
    with pytest.raises(BudgetExceededError) as info:
        track.at(level)
    assert str(info.value) == _window_message(*window, 3600300000)[
        len("budget: "):-1]
    assert len(track._known) == 1


def test_narrow_window_of_a_deep_chain_still_runs(tmp_path):
    path = _gen(tmp_path, "fibonacci", "--steps", str(10 ** 6),
                "--direction", "folding")
    rc, out, _ = _run(["decompose", path, "--window=0:12"])
    assert rc == 0
    assert json.loads(out)["decomposition"]["window"] == list(range(13))


def test_window_bit_budget_is_inclusive(chains, monkeypatch):
    """Levels 0..3 of the 12-step Fibonacci folding chain: the length
    track is seeded with ones (2 bits) at level 12, so its entries can
    reach 11..14 bits there, and the frequency current, seeded at level
    0, 2..5 bits; two edges each, 128 bits in all."""
    argv = ["decompose", chains["fib12"], "--window=0:3"]
    monkeypatch.setattr(sequences, "WINDOW_BIT_BUDGET", 128)
    assert _run(argv)[0] == 0
    monkeypatch.setattr(sequences, "WINDOW_BIT_BUDGET", 127)
    rc, out, err = _run(argv)
    assert (rc, out) == (3, "")
    assert err == _window_message(0, 3, 128).replace("500000000", "127")


def test_decompose_window_across_a_10_13_step_chain_exits_3(tmp_path):
    """Inside the chain, a window of 10^13 levels is refused by its bound
    at once, where listing its levels ended in a MemoryError traceback.
    Entries are bounded at ``CARRY_BIT_BUDGET``, as the carry refuses any
    past it."""
    start = time.perf_counter()
    rc, out, err = _run(["decompose", _huge(tmp_path), f"--window=0:{HUGE}"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "")
    assert err == _window_message(0, HUGE, 79999992000019999996)


@settings(max_examples=300, deadline=None)
@given(first=st.integers(0, 10 ** 7), step=st.integers(0, 5),
       count=st.integers(-2, 60), cap=st.integers(0, 10 ** 7 + 300))
def test_capped_sum_matches_the_terms(first, step, count, cap):
    assert _capped_sum(first, step, count, cap) == sum(
        min(first + step * j, cap) for j in range(max(count, 0)))


def _bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length()


def _stepwise_window_bits(tracks, n0, n1, cap):
    """The window bound summed level by level: each level's edge count
    times its entries' bound, carried one step at a time from the seed."""
    total = 0
    for track in tracks:
        seq = track.seq
        current = track.kind == "current"
        steps = range(seq.n_steps) if current \
            else range(seq.n_steps - 1, -1, -1)
        seed = track._known[0 if current else seq.n_steps]
        bits = max(map(_bits, seed))
        kept = {0 if current else seq.n_steps: bits}
        for i in steps:
            bits += seq._step(i).growth_bits()
            kept[i + 1 if current else i] = bits
        for level in seq._levels_between(n0, n1):
            j = seq._internal(level)
            total += seq.graph_at(level).n_edges * min(kept[j], cap)
    return total


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pool=st.sampled_from(_RUN_POOLS),
       direction=st.sampled_from(("folding", "unfolding")))
def test_window_bits_match_the_levels_one_by_one(data, pool, direction):
    runs = data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                        st.integers(1, 40)),
                              min_size=1, max_size=5), label="runs")
    seq = FoldingSequence.from_runs(runs, direction)
    levels = list(seq.levels)
    n0, n1 = sorted(data.draw(st.lists(st.sampled_from(levels), min_size=2,
                                       max_size=2), label="window"))
    ends = (seq.graph_at(levels[0]).n_edges,
            seq.graph_at(levels[-1]).n_edges)
    scale = data.draw(st.sampled_from((1, 7, 2 ** 40)), label="scale")
    tracks = [current_track_from_initial(seq, [scale] * ends[0]),
              length_track_from_terminal(seq, [1] * ends[1])]
    cap = data.draw(st.sampled_from((CARRY_BIT_BUDGET, 50)), label="cap")
    with patch.object(sequences, "CARRY_BIT_BUDGET", cap), \
            patch.object(sequences, "WINDOW_BIT_BUDGET", -1), \
            pytest.raises(BudgetExceededError) as info:
        _check_window_bits(tracks, n0, n1)
    want = _stepwise_window_bits(tracks, n0, n1, cap)
    assert f" could keep {want} bits " in str(info.value)


# -- cone depths -----------------------------------------------------------


_DEPTHS = st.one_of(
    st.integers(-80, 80).map(str),
    st.integers(10 ** 12, 10 ** 40).flatmap(
        lambda n: st.sampled_from((str(n), str(-n)))),
    st.text("0123456789+-_ .ex", max_size=6),
    st.just("9" * 5000))


@settings(max_examples=200, deadline=None)
@given(text=_DEPTHS)
def test_cone_depth_fuzz(chains, text):
    """On the 40-step chain a depth in 0..40 exits 0 and reports that depth;
    any other integer exits 2 naming the stored range, and text that is
    not an integer (or one past Python's digit limit) is argparse's
    refusal."""
    rc, out, err = _run(["cone", chains["fib40"], f"--depth={text}"])
    try:
        depth = int(text)
    except ValueError:
        depth = None
    if text == "--":
        assert (rc, out) == (2, "")
        assert err.endswith("argument --depth: expected one argument\n")
    elif depth is None:
        assert (rc, out) == (2, "")
        assert err.endswith(
            f"argument --depth: invalid int value: {text!r}\n")
    elif 0 <= depth <= 40:
        assert (rc, err) == (0, "")
        assert json.loads(out)["cone"]["depth"] == depth
    else:
        assert (rc, out) == (2, "")
        assert err == f"error: depth {depth} outside the stored range 0..40\n"


# -- malformed bounds ------------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (["decompose", "{fib12}", "--window=5"],
     "window must be n0:n1, got '5'"),
    (["decompose", "{fib12}", "--window=1:2:3"],
     "window must be n0:n1, got '1:2:3'"),
    (["decompose", "{fib12}", "--window=a:b"],
     "window bounds must be integers: 'a:b'"),
    (["progress", "{fib12}", "--levels", "1"],
     "levels must be n0:n1[:stride], got '1'"),
    (["progress", "{fib12}", "--levels", "1:2:3:4"],
     "levels must be n0:n1[:stride], got '1:2:3:4'"),
    (["progress", "{fib12}", "--levels", "x:2"],
     "levels bounds must be integers: 'x:2'")])
def test_malformed_bounds_exit_2(chains, argv, message):
    """A window or level range with the wrong number of bounds, or a bound
    that is not an integer, is refused before any level is read."""
    rc, out, err = _run([a.format(**chains) for a in argv])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# -- levels past sys.maxsize -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(start=st.integers(-20, 20), stop=st.integers(-20, 20),
       step=st.integers(-5, 5).filter(bool))
def test_level_count_is_len(start, stop, step):
    levels = range(start, stop, step)
    for sliced in (levels, levels[1::2], levels[::-3]):
        assert _level_count(sliced) == len(sliced)
        assert _level_count(list(sliced)) == len(sliced)


def test_level_count_past_sys_maxsize():
    assert _level_count(range(DEEP + 1)) == DEEP + 1
    assert _level_count(range(-DEEP, 1)[1:]) == DEEP
    assert _level_count(range(DEEP, -1, -3)) == DEEP // 3 + 1


@pytest.mark.parametrize("direction,n0,n1", [("folding", 0, DEEP),
                                             ("unfolding", -DEEP, 0)])
def test_decompose_window_past_sys_maxsize_exits_3(tmp_path, direction, n0,
                                                   n1):
    """A window of 10^20 + 1 levels is counted by range arithmetic and
    refused by its bound, where len() of it raised OverflowError (a
    traceback, exit 1)."""
    path = _huge(tmp_path, direction, DEEP)
    start = time.perf_counter()
    rc, out, err = _run(["decompose", path, f"--window={n0}:{n1}"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "")
    assert err == _window_message(n0, n1, 799999999999992000019999996)


def test_progress_levels_past_sys_maxsize(tmp_path):
    """On a 10^20-step chain, levels inside it past ``metric.MAX_LEVELS``
    exit 3 and levels past its end exit 2 naming the first one, where
    len() of the range raised OverflowError."""
    path = _huge(tmp_path, steps=DEEP)
    rc, out, err = _run(["progress", path, "--levels", f"0:{DEEP}"])
    assert (rc, out) == (3, "")
    assert err == (f"budget: a progress report of {DEEP + 1} levels is past "
                   f"the limit of {metric.MAX_LEVELS} levels "
                   "(metric.MAX_LEVELS)\n")
    for text, level in ((f"0:{2 * DEEP}", DEEP + 1),
                        (f"0:{2 * DEEP}:7", DEEP + 5)):
        rc, out, err = _run(["progress", path, "--levels", text])
        assert (rc, out, err) == (2, "", f"error: level {level} outside the "
                                         "sequence\n")


def test_library_moduli_window_is_bounded_before_it_is_listed():
    seq = FoldingSequence.from_runs([(examples.fibonacci_step(), DEEP)],
                                    "unfolding")
    lam = simplicial_length_measure(seq)
    with pytest.raises(BudgetExceededError):
        moduli_window(seq, lam, range(-DEEP, 1))
    with pytest.raises(SequenceError, match="at least two"):
        moduli_window(seq, lam, range(0, 1))
    assert lam._known.keys() == {DEEP}


# -- progress levels -------------------------------------------------------


def _first_outside(seq, levels):
    """The message the levels gave when they were read one by one."""
    for level in levels:
        try:
            seq._internal(level)
        except SequenceError as exc:
            return f"error: {exc}\n"
    return None


@settings(max_examples=200, deadline=None)
@given(n0=st.integers(-4, 16), n1=st.integers(-4, 40),
       stride=st.one_of(st.none(), st.integers(-1, 9)))
def test_progress_levels_fuzz(chains, n0, n1, stride):
    """Every request exits 0 or 2; an out-of-range one names the first
    requested level outside the sequence, as the report read level by
    level did, and an accepted one reports exactly the requested levels."""
    path = chains["fib12"]
    text = f"{n0}:{n1}" if stride is None else f"{n0}:{n1}:{stride}"
    rc, out, err = _run(["progress", path, f"--levels={text}"])
    step = 1 if stride is None else stride
    if step < 1:
        assert (rc, err) == (2, "error: stride must be >= 1\n")
    elif n1 < n0:
        assert (rc, err) == (2, "error: levels must satisfy n0 <= n1\n")
    else:
        levels = list(range(n0, n1 + 1, step))
        outside = _first_outside(parse_sequence(path), levels)
        if outside is None:
            assert rc == 0
            assert json.loads(out)["progress"]["levels"] == levels
            return
        assert (rc, err) == (2, outside)
    assert out == ""


@pytest.mark.parametrize("text,level", [("-3:5", -3), ("13:14", 13),
                                        ("0:30:7", 14), ("10:99:2", 14)])
def test_progress_levels_outside_name_the_first_one(chains, text, level):
    rc, out, err = _run(["progress", chains["fib12"], f"--levels={text}"])
    assert (rc, out, err) == (2, "", f"error: level {level} outside the "
                                     "sequence\n")


def test_progress_levels_past_a_10_13_step_chain(tmp_path):
    """Levels stay a range: past the stored ones exits 2, and inside them
    past ``metric.MAX_LEVELS`` exits 3, both before any level is read,
    where listing them ran out of memory."""
    path = _huge(tmp_path)
    rc, out, err = _run(["progress", path, "--levels", f"0:{2 * HUGE}"])
    assert (rc, out, err) == (2, "", f"error: level {HUGE + 1} outside the "
                                     "sequence\n")
    rc, out, err = _run(["progress", path, "--levels", f"0:{HUGE}"])
    assert (rc, out) == (3, "")
    assert err == (f"budget: a progress report of {HUGE + 1} levels is past "
                   f"the limit of {metric.MAX_LEVELS} levels "
                   "(metric.MAX_LEVELS)\n")


def test_progress_level_limit_is_inclusive(chains, monkeypatch):
    monkeypatch.setattr(metric, "MAX_LEVELS", 5)
    rc, out, _ = _run(["progress", chains["fib12"], "--levels", "0:8:2"])
    assert rc == 0 and json.loads(out)["progress"]["levels"] == [0, 2, 4,
                                                                 6, 8]
    rc, out, err = _run(["progress", chains["fib12"], "--levels", "0:5"])
    assert (rc, out) == (3, "")
    assert "metric.MAX_LEVELS" in err


# -- decomposition pinch tolerance -----------------------------------------


@pytest.mark.parametrize("value", ["-1", "-1/2"])
def test_decompose_negative_pinch_tol_exits_2(chains, value):
    """A negative tolerance pinches no edge; it is refused before any
    work, as a negative ``--eps`` is."""
    rc, out, err = _run(["decompose", chains["alt4"], "--window=-9:0",
                         f"--pinch-tol={value}"])
    assert (rc, out) == (2, "")
    assert err.endswith(
        f"argument --pinch-tol: not a nonnegative rational: {value!r}\n")


def test_decompose_zero_pinch_tol_is_allowed(chains):
    rc, out, _ = _run(["decompose", chains["alt4"], "--window=-9:0",
                       "--pinch-tol", "0"])
    assert rc == 0
    assert json.loads(out)["pinched"] == []


# -- block schedules -------------------------------------------------------


@pytest.mark.parametrize("schedule", ["-3,2", "", "0", "3,0,3", "2,x", ","])
def test_gen_bad_schedule_exits_2(tmp_path, schedule):
    rc, out, err = _run(["gen", "alternating_block", f"--schedule={schedule}",
                         "--out-dir", str(tmp_path)])
    assert (rc, out, err) == (2, "", f"error: bad schedule {schedule!r}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("schedule", [(), (-3, 2), (0,), (3, 0, 3),
                                      (2.5, 3), ("3",), (None, 2)])
def test_library_refuses_a_bad_schedule_before_building(monkeypatch,
                                                        schedule):
    """The library refuses what the command line refuses, before it builds
    a graph or a step."""
    def build(*args, **kwargs):
        raise AssertionError("built a chain for a bad schedule")
    monkeypatch.setattr(examples, "rose", build)
    with pytest.raises(FormatError, match="block schedule"):
        examples.gen_alternating_block(schedule=schedule)


@pytest.mark.parametrize("name", ["fibonacci", "alternating_block"])
def test_gen_csv_is_refused_before_any_file(tmp_path, name):
    rc, out, err = _run(["gen", name, "--format", "csv",
                         "--out-dir", str(tmp_path)])
    assert (rc, out, err) == (2, "", "error: gen has no CSV form\n")
    assert os.listdir(tmp_path) == []


@settings(max_examples=100, deadline=None)
@given(schedule=st.text("0123-, ", max_size=6))
def test_gen_schedule_fuzz(schedule):
    """A schedule of integers, each at least 1, writes a chain of their sum
    in steps; anything else exits 2 and writes nothing."""
    try:
        lengths = [int(x) for x in schedule.split(",")]
    except ValueError:
        lengths = None
    with tempfile.TemporaryDirectory() as out_dir:
        rc, out, err = _run(["gen", "alternating_block",
                             f"--schedule={schedule}", "--out-dir", out_dir])
        if schedule == "--":
            assert (rc, out) == (2, "")
            assert err.endswith("argument --schedule: expected one "
                                "argument\n")
            return
        if lengths is None or min(lengths) < 1:
            assert (rc, out, err) == (
                2, "", f"error: bad schedule {schedule!r}\n")
            assert os.listdir(out_dir) == []
            return
        assert rc == 0
        seq = parse_sequence(json.loads(out)["sequence_file"])
        assert seq.n_steps == sum(lengths)


# -- seed edges, walks and generated chains --------------------------------


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(("alt4", "fib12")),
       seeds=st.one_of(st.text("abcdz, -", max_size=7),
                       st.sampled_from(("", ",", "-a", "a,c", "a, c"))))
def test_decompose_seeds_fuzz(chains, key, seeds):
    """Every seed list exits 0 or 2: a name that is not an edge of the
    deep graph is refused by name, the empty list too, and a list of
    edges reports one measure per edge or refuses homothetic measures."""
    window = "--window=-9:0" if key == "alt4" else "--window=0:6"
    rc, out, err = _run(["decompose", chains[key], window,
                         f"--seeds={seeds}"])
    names = seeds.split(",")
    edges = tuple("abcd" if key == "alt4" else "ab")
    unknown = [n for n in names if n not in edges]
    if seeds == "--":
        assert (rc, out) == (2, "")
        assert err.endswith("argument --seeds: expected one argument\n")
    elif unknown:
        assert (rc, out, err) == (2, "",
                                  f"error: unknown seed edges {unknown}\n")
    elif rc == 2:
        assert out == ""
        assert err.startswith("error: measures ") and "homothetic" in err
    else:
        assert (rc, err) == (0, "")
        parts = json.loads(out)["decomposition"]["parts"]
        assert len(parts) == len(names) + 1


# at most four characters, so any integer the text spells is at most 2222
_WALK_TEXT = st.text("012-+_ .x", max_size=4)


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.integers(), st.integers().map(str), _WALK_TEXT,
                      st.just(str(10 ** 22 + 7))),
       steps=st.one_of(st.integers(-10, 2000),
                       st.integers(walk.MAX_STEPS + 1, 10 ** 30),
                       _WALK_TEXT))
@example(seed="--", steps="x")
@example(seed="x", steps="--")
def test_walk_seed_and_steps_fuzz(seed, steps):
    """Every seed and step count exits 0, 2 or 3: text that is not an
    integer is argparse's refusal, fewer than 2 steps exit 2 and more
    than ``walk.MAX_STEPS`` exit 3, both before any step; any integer
    seed walks.  Accepted walks stay short, so no example runs long."""
    rc, out, err = _run(["walk", f"--seed={seed}", f"--steps={steps}"])
    texts = (str(seed), str(steps))
    seed_n, steps_n = map(_int_or_none, texts)
    if any(_int_or_none(t) is None and t != "--" for t in texts):
        assert (rc, out) == (2, "")
        assert "invalid int value" in err
    elif "--" in texts:
        assert (rc, out) == (2, "")
        assert err.endswith("expected one argument\n")
    elif steps_n < 2:
        assert (rc, out, err) == (
            2, "", f"error: a walk needs at least 2 steps, got {steps_n}\n")
    elif steps_n > walk.MAX_STEPS:
        assert (rc, out) == (3, "")
        assert err == (f"budget: a walk of {steps_n} steps is past the limit "
                       f"of {walk.MAX_STEPS} steps (walk.MAX_STEPS)\n")
    else:
        assert (rc, err) == (0, "")
        report = json.loads(out)["walk"]
        assert (report["seed"], report["steps"]) == (seed_n, steps_n)


_GEN_INTS = st.one_of(st.integers(-5, 50), st.integers(10 ** 12, 10 ** 30),
                      st.text("0123456789-+_ .x", max_size=5))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(("fibonacci", "alternating_block")),
       value=_GEN_INTS)
def test_gen_rank_and_steps_fuzz(name, value):
    """``gen fibonacci --steps`` writes a chain of that many steps, one run
    however many, and refuses fewer than one (exit 2);
    ``gen alternating_block --rank`` takes 3 or 4 and refuses any other
    rank (exit 2).  A refusal writes no file."""
    option = "--steps" if name == "fibonacci" else "--rank"
    n = _int_or_none(str(value))
    with tempfile.TemporaryDirectory() as out_dir:
        short = ["--schedule=1,2"] if name == "alternating_block" else []
        rc, out, err = _run(["gen", name, f"{option}={value}", *short,
                             "--out-dir", out_dir])
        if value == "--":
            assert (rc, out) == (2, "")
            assert err.endswith(f"argument {option}: expected one "
                                "argument\n")
        elif n is None:
            assert (rc, out) == (2, "")
            assert err.endswith(f"argument {option}: invalid int value: "
                                f"{value!r}\n")
        elif name == "fibonacci" and n < 1:
            assert (rc, out, err) == (
                2, "", "error: a sequence needs at least one step\n")
        elif name == "alternating_block" and n not in (3, 4):
            assert (rc, out, err) == (
                2, "", "error: alternating blocks come at rank 3 or 4\n")
        else:
            assert (rc, err) == (0, "")
            seq = parse_sequence(json.loads(out)["sequence_file"])
            assert seq.n_steps == (n if name == "fibonacci" else 3)
            assert seq.graph_at(seq.levels[0]).n_edges == \
                (2 if name == "fibonacci" else n)
            return
        assert os.listdir(out_dir) == []


@pytest.mark.parametrize("name,argv", [
    ("--schedule", ["gen", "alternating_block", "--out-dir", "{tmp}"]),
    ("--window", ["fold", "{fib12}"]),
    ("--window", ["decompose", "{fib12}"]),
    ("--seeds", ["decompose", "{fib12}", "--window=0:6"]),
    ("--levels", ["progress", "{fib12}"]),
    ("--tol", ["cone", "{fib12}", "--depth=3"]),
    ("--out", ["walk", "--seed=1"])])
def test_option_value_of_two_dashes_exits_2(chains, tmp_path, name, argv):
    """argparse reads ``--name=--`` as an empty list, not a string; it is
    refused as a missing value, where it ended in a traceback or was
    ignored."""
    argv = [a.format(tmp=tmp_path, **chains) for a in argv] + [f"{name}=--"]
    rc, out, err = _run(argv)
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: argument {name}: expected one argument\n")


# -- undecodable files, oversized exponents and brute-force lengths --------


@pytest.mark.parametrize("kind", ["sequence", "morphism", "graph"])
def test_undecodable_file_exits_2_naming_it(tmp_path, kind):
    """A file with a byte that is not UTF-8 ended in a UnicodeDecodeError
    traceback (exit 1); every file kind is read by one reader that names
    the file.  A graph file is read by ``distance`` and, through its
    morphism, by ``fold``."""
    path = _gen(tmp_path, "fibonacci", "--steps", "3")
    bad = next(str(p) for p in tmp_path.iterdir()
               if p.name.endswith("." + kind))
    with open(bad, "rb") as fh:
        data = fh.read()
    with open(bad, "wb") as fh:
        fh.write(data[:7] + b"\xff" + data[7:])
    message = (f"error: {bad} is not UTF-8 text (invalid start byte at "
               "byte 7)\n")
    assert _run(["fold", path]) == (2, "", message)
    if kind == "graph":
        assert _run(["distance", bad, bad]) == (2, "", message)


@pytest.mark.parametrize("value", ["1e100000000", "1e-100000000", "1e4301",
                                   "1e" + "9" * 5000])
@pytest.mark.parametrize("option", ["--eps", "--pinch-tol"])
def test_oversized_exponent_option_exits_2_at_once(chains, option, value):
    """``Fraction`` forms 10^e first, so ``--eps 1e100000000`` ran past a
    15 s timeout; an exponent past ``sys.get_int_max_str_digits()`` is
    refused with the bad-rational message."""
    start = time.perf_counter()
    rc, out, err = _run(["decompose", chains["alt4"], "--window=-9:0",
                         f"{option}={value}"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert err.endswith(f"argument {option}: not a rational: {value!r}\n")


def test_oversized_exponent_in_a_graph_file_exits_2_at_once(tmp_path):
    graph = tmp_path / "big.graph"
    graph.write_text("VERTICES\n*\nEDGES\na * *\nb * *\nLENGTHS\n"
                     "a 1e100000000\n", encoding="utf-8")
    start = time.perf_counter()
    rc, out, err = _run(["distance", str(graph), str(graph)])
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", "error: bad rational '1e100000000'\n")


def test_exponents_up_to_the_digit_limit_are_rationals():
    assert _fraction("1e4300") == 10 ** 4300
    assert _fraction(" -2.5E-4300 ") == Fraction(-25, 10 ** 4301)
    assert _fraction("3/4") == Fraction(3, 4)
    for token in ("1e4301", "1E-4301", "2.5e+100000000", "1/0", "x"):
        with pytest.raises(FormatError, match="bad rational"):
            _fraction(token)


def test_distance_bruteforce_past_the_word_budget_exits_3_at_once(tmp_path):
    """``(2 rank - 1) ** max_len`` was formed before the comparison, so
    ``--bruteforce 1000000000`` was killed after 20 s."""
    graph = tmp_path / "rose.graph"
    graph.write_text("VERTICES\n*\nEDGES\na * *\nb * *\n",
                     encoding="utf-8")
    for length in ("15", "1000000000", str(10 ** 30)):
        start = time.perf_counter()
        rc, out, err = _run(["distance", str(graph), str(graph),
                             "--bruteforce", length])
        assert time.perf_counter() - start < 1.0
        assert (rc, out, err) == (3, "", "budget: brute-force word tree too "
                                         "large at this rank and length\n")
