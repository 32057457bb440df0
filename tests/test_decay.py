"""Decay flags from the two ends of a track and the covering certificate,
against the stepwise sweep over every level; the ``fold`` report bytes."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace import (FoldingSequence, InvalidTrackError, MeasureTrack,
                       current_track_from_initial, decay_check,
                       frequency_current, gen_alternating_block,
                       gen_fibonacci, identity_morphism,
                       length_track_from_terminal, rose,
                       simplicial_length_measure)
from foldspace import cli
from foldspace.examples import fibonacci_step
from foldspace.linalg import frac_log

from conftest import rose_morphism
from test_sequences import _chains, _run_chains


# -- the stepwise sweep, kept as the oracle ------------------------------


def _trend_nondecreasing(series):
    tail = series[len(series) // 2:]
    return all(a <= b for a, b in zip(tail, tail[1:]))


def _stepwise_decay_check(seq, length_track=None, current_track=None):
    """Per-level extremes of the tracks, with growth/decay trend flags,
    read from every level's vector."""
    levels = list(seq.levels)
    report = {"levels": tuple(levels)}
    flags = {}
    if length_track is not None:
        maxima = [max(v) for v in length_track.at_levels(levels)]
        # deep end is the left end: reverse so "growth" reads left-ward
        rev = list(reversed(maxima))
        growing = _trend_nondecreasing(rev) and rev[-1] > rev[0]
        report["lambda_max_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in maxima)
        flags["lambda_deep_growth"] = growing
    if current_track is not None:
        vectors = current_track.at_levels(levels)
        minima = [min(v) for v in vectors]
        maxima = [max(v) for v in vectors]
        growing = _trend_nondecreasing(minima) and minima[-1] > minima[0]
        report["mu_min_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in minima)
        report["mu_max_log"] = tuple(
            frac_log(v) if v > 0 else float("-inf") for v in maxima)
        flags["mu_growth"] = growing
    flags["reduced_consistent"] = all(flags.values()) if flags else False
    report["flags"] = flags
    return report


def _int_seed(data, n):
    # small entries, so that zeros and ties are common
    return data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                     label="seed")


def _check_against_sweep(seq, length_seed, current_seed):
    """Both tracks, alone and together, on fresh tracks for each side; the
    CSV rows against the sweep's logs of the maxima."""
    levels = list(seq.levels)

    def tracks():
        return (length_track_from_terminal(seq, length_seed),
                current_track_from_initial(seq, current_seed))

    for use in ((True, False), (False, True), (True, True)):
        got = decay_check(seq, *(t if u else None
                                 for t, u in zip(tracks(), use)))
        want = _stepwise_decay_check(seq, *(t if u else None
                                             for t, u in zip(tracks(), use)))
        assert got == {"levels": want["levels"], "flags": want["flags"]}
    want = _stepwise_decay_check(seq, *tracks())
    lam, mu = tracks()
    assert [x for _, x in cli._log_maxima(lam, levels)] == \
        list(want["lambda_max_log"])
    assert [x for _, x in cli._log_maxima(mu, levels)] == \
        list(want["mu_max_log"])


@settings(max_examples=100, deadline=None)
@given(seq=_chains(), data=st.data())
def test_flags_match_sweep_on_chains(seq, data):
    levels = list(seq.levels)
    _check_against_sweep(
        seq, _int_seed(data, seq.graph_at(levels[-1]).n_edges),
        _int_seed(data, seq.graph_at(levels[0]).n_edges))


@settings(max_examples=40, deadline=None)
@given(seq=_run_chains(), data=st.data())
def test_flags_match_sweep_on_run_chains(seq, data):
    levels = list(seq.levels)
    _check_against_sweep(
        seq, _int_seed(data, seq.graph_at(levels[-1]).n_edges),
        _int_seed(data, seq.graph_at(levels[0]).n_edges))


@settings(max_examples=30, deadline=None)
@given(letters=st.sampled_from(("ab", "abc", "abcd")),
       steps=st.integers(1, 40),
       direction=st.sampled_from(("folding", "unfolding")),
       data=st.data())
def test_flags_match_sweep_on_identity_chains(letters, steps, direction,
                                              data):
    seq = FoldingSequence([identity_morphism(rose(letters))] * steps,
                          direction)
    n = len(letters)
    _check_against_sweep(seq, _int_seed(data, n), _int_seed(data, n))


# -- steps that do not cover ----------------------------------------------


_ROSE2 = rose("ab")
_COVERING = (fibonacci_step(_ROSE2),
             rose_morphism(_ROSE2, {"a": "a b", "b": "b"}),
             identity_morphism(_ROSE2))
# each misses b or a: the first two can lower a current's minimum, the
# last two a length's maximum
_NOT_COVERING = (rose_morphism(_ROSE2, {"a": "a", "b": "a"}),
                 rose_morphism(_ROSE2, {"a": "a", "b": ""}),
                 rose_morphism(_ROSE2, {"a": "b", "b": "b"}),
                 rose_morphism(_ROSE2, {"a": "b b", "b": "b"}))


def test_certificate_is_kept_and_exact():
    for f in _COVERING:
        assert f.covers() and f.covers() is f.covers()
    for f in _NOT_COVERING:
        assert not f.covers()
    assert all(f.covers() for f in gen_alternating_block(
        (1, 1), rank=3).sequence.morphisms)


@st.composite
def _uncovered_chains(draw):
    """Runs of rose(ab) steps, at least one of which does not cover,
    unvalidated; adjacent runs of one step object merge."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(_COVERING + _NOT_COVERING),
                  st.integers(1, 40)), max_size=5), label="runs")
    bad = draw(st.tuples(st.sampled_from(_NOT_COVERING), st.integers(1, 5),
                         st.integers(0, len(runs))), label="uncovered run")
    runs.insert(bad[2], bad[:2])
    steps = [f for f, k in runs for _ in range(k)]
    direction = draw(st.sampled_from(("folding", "unfolding")))
    return FoldingSequence(steps, direction, validate=False)


@settings(max_examples=150, deadline=None)
@given(seq=_uncovered_chains(), data=st.data())
def test_flags_match_sweep_with_uncovered_steps(seq, data):
    assert not all(f.covers() for f in seq.morphisms)
    _check_against_sweep(seq, _int_seed(data, 2), _int_seed(data, 2))


@pytest.mark.parametrize("bad", _NOT_COVERING)
def test_one_uncovered_step_at_every_position(bad):
    """Fibonacci chains of up to 9 steps with one step that does not
    cover, at each position: the half that is compared starts exactly
    where the sweep's does."""
    fib = _COVERING[0]
    for T in range(1, 10):
        for p in range(T):
            steps = [fib] * T
            steps[p] = bad
            for direction in ("folding", "unfolding"):
                seq = FoldingSequence(steps, direction, validate=False)
                for seed in ((1, 1), (2, 1), (1, 2)):
                    _check_against_sweep(seq, seed, seed)


# -- tracks given level by level ------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seq=_chains(), data=st.data())
def test_flags_match_sweep_on_explicit_tracks(seq, data):
    """Explicit vectors need not obey the recurrence, so a covering step
    certifies nothing there: take the carried track and replace one
    level's vector."""
    levels = list(seq.levels)
    for kind, make, end in (("length", length_track_from_terminal, -1),
                            ("current", current_track_from_initial, 0)):
        carried = make(seq, [1] * seq.graph_at(levels[end]).n_edges)
        vectors = [list(carried.at(n)) for n in levels]
        k = data.draw(st.integers(0, len(levels) - 1), label="level")
        vectors[k] = _int_seed(data, len(vectors[k]))
        track = MeasureTrack(seq, kind, vectors)
        arg = {f"{kind}_track": track}
        assert decay_check(seq, **arg) == {
            "levels": tuple(levels),
            "flags": _stepwise_decay_check(seq, **arg)["flags"]}


# -- typed refusals ---------------------------------------------------------


def test_decay_check_refuses_wrong_kind_and_foreign_tracks(fib_fold15):
    seq = gen_fibonacci(steps=10, direction="unfolding").sequence
    mu = current_track_from_initial(seq, [1, 1])
    with pytest.raises(InvalidTrackError, match="length track"):
        decay_check(seq, length_track=mu)
    lam = length_track_from_terminal(seq, [1, 1])
    with pytest.raises(InvalidTrackError, match="current track"):
        decay_check(seq, current_track=lam)
    longer = gen_fibonacci(steps=12, direction="unfolding").sequence
    with pytest.raises(InvalidTrackError, match="different sequence"):
        decay_check(seq, length_track=simplicial_length_measure(longer))
    with pytest.raises(InvalidTrackError, match="different sequence"):
        decay_check(seq, current_track=frequency_current(fib_fold15))


# -- the fold report on the canned 5460-step blocks -------------------------


# sha256 of ``foldspace fold`` output, recorded before the stepwise sweep
# was replaced: (rank, direction) -> (JSON, CSV)
FOLD_DIGESTS = {
    (3, "folding"): (
        "c000fb27bdf0e2b9b5ec5097ade31b9c1ef9fc7b9e976f98945babe7f7c99c8e",
        "9a63958613c661cf8a62caee05bcb768f123309fb2a26cb0c9f118ac68018025"),
    (3, "unfolding"): (
        "97a911cd1515d768b6184098442f9fe821910cd4864ad69c7cb899c634273245",
        "30bc57781b581e0b1a8d4c57b506b7ac7dec237af5f14098e2d80ea3941c15c6"),
    (4, "folding"): (
        "c2d565304d7e8e969432ba2b1df447bc5efb0eedf207d3fccdd2adb8b9cf6b8c",
        "82d6142ed988389fa797ef55a5411d8746cc7fa092e44f7db1e51cd82293a7c9"),
    (4, "unfolding"): (
        "124f3a33d9ee8041b3b626b84195f13f547e0853dce01cd10d9fa08a0043a22b",
        "c5b09d67c8533756782de9c9d02de324fc01aac196440cd5c6070e2ac1a5bc0e"),
}


@pytest.fixture(scope="module")
def canned_blocks(tmp_path_factory):
    """(rank, direction) -> path of the canned block written by ``gen``."""
    paths = {}
    for rank, direction in FOLD_DIGESTS:
        out = tmp_path_factory.mktemp(f"alt{rank}{direction[0]}")
        assert cli.main(["gen", "alternating_block", "--rank", str(rank),
                         "--direction", direction, "--out-dir",
                         str(out)]) == 0
        paths[rank, direction] = out / f"alternating{rank}.sequence"
    return paths


@pytest.mark.parametrize("block", sorted(FOLD_DIGESTS))
def test_fold_report_bytes(canned_blocks, tmp_path, block):
    for fmt, digest in zip(("json", "csv"), FOLD_DIGESTS[block]):
        out = tmp_path / f"fold.{fmt}"
        assert cli.main(["fold", str(canned_blocks[block]), "--format", fmt,
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("block", sorted(FOLD_DIGESTS))
def test_json_fold_keeps_few_vectors(canned_blocks, tmp_path, monkeypatch,
                                     block):
    """The JSON report reads the track's two ends by run powers; a sweep
    over every level would keep all 5461 vectors."""
    made = []

    def keeping(make):
        def kept(seq):
            made.append(make(seq))
            return made[-1]
        return kept

    for name in ("simplicial_length_measure", "frequency_current"):
        monkeypatch.setattr(cli, name, keeping(getattr(cli, name)))
    assert cli.main(["fold", str(canned_blocks[block]), "--out",
                     str(tmp_path / "fold.json")]) == 0
    (track,) = made
    assert track.seq.n_steps == 5460
    assert len(track._known) <= 2 * len(track.seq.step_runs) + 2


def test_fold_csv_rows_are_lazy(fib_fold40):
    """Building the CSV rows carries nothing until they are read."""
    mu = frequency_current(fib_fold40)
    rows = cli._log_maxima(mu, list(fib_fold40.levels))
    assert sorted(mu._known) == [0]
    assert next(rows) == (0, 0.0)
    assert len(list(rows)) == 40
    assert len(mu._known) == 41

