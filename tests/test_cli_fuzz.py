"""Hypothesis fuzz of the command line: a malformed grid, level list, sample
count, spec file or ``--out`` path, or a sweep over ``MAX_SWEEP_CELLS``, exits 2
with exactly one ``error:`` line on stderr, nothing on stdout and no traceback.

``main()`` runs in process.  Every argv passes argparse's own type checks, so
argparse's two-line usage errors do not arise; values go in ``--flag=value``
form so a leading ``-`` is never read as an option.  Warnings are raised as
errors, because in a real run each one would add stderr lines.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab.cli import main

FUZZ = settings(max_examples=60, deadline=None)

IDENTITY_SPEC = {"levels": [0, 1], "gamma": [[1.0, 0.0], [0.0, 1.0]]}
# (bohr, output_index) of the four level pairs of a qubit
QUBIT_PAIRS = {(0, 0), (-1, 0), (1, 1), (0, 1)}


def assert_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), err.getvalue()
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


def _grid_is_valid(g: float) -> bool:
    return 0.0 < g <= 1.0 and abs(1.0 / g - round(1.0 / g)) <= 1e-6


def _levels_are_valid(text: str) -> bool:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        return False
    return a < b


def _stochastic(gamma) -> bool:
    cols = list(zip(*gamma))
    return all(math.isfinite(x) and x >= -1e-9 for x in sum(gamma, [])) and all(
        abs(sum(c) - 1.0) <= 1e-9 for c in cols)


bad_grids = st.one_of(
    st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), st.just(math.nan),
    st.floats(min_value=0.05, max_value=1.0).filter(lambda g: not _grid_is_valid(g)))

# grids 1/n far past MAX_SWEEP_CELLS for every sweep (or, in float, not 1/n at all)
tiny_grids = st.one_of(st.integers(2 * 10**6, 10**300).map(lambda n: 1.0 / n),
                       st.floats(min_value=5e-324, max_value=5e-7))

bad_level_lists = st.one_of(
    st.lists(st.integers(-3, 3).map(str), max_size=4).map(",".join),
    st.text(max_size=8)).filter(lambda s: not _levels_are_valid(s))

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                         st.floats(allow_nan=True))

non_integer_levels = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.integers().filter(lambda x: abs(x) >= 2**53),
    st.floats().filter(lambda x: not (math.isfinite(x) and x.is_integer() and abs(x) < 2**53)))

bad_levels = st.one_of(
    # integers, but not two strictly increasing ones for the 2x2 gamma
    st.lists(st.integers(-3, 3), max_size=4)
    .filter(lambda lv: not (len(lv) == 2 and lv[0] < lv[1])),
    st.tuples(non_integer_levels, st.integers(0, 5)).map(lambda t: [t[1] - 10, t[0], t[1] + 10]),
    st.tuples(non_integer_levels).map(lambda t: [0, t[0]]),
    st.one_of(st.none(), st.integers(), st.text(max_size=4),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))

bad_gammas = st.one_of(
    st.lists(st.lists(st.floats(allow_nan=True), min_size=2, max_size=2),
             min_size=2, max_size=2).filter(lambda g: not _stochastic(g)),
    st.lists(st.lists(st.floats(0, 1), max_size=3), max_size=3).filter(
        lambda g: not (len(g) == 2 and all(len(row) == 2 for row in g))),
    json_scalars, st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    # JSON true/false are not the numbers 1 and 0
    st.lists(st.lists(st.one_of(st.booleans(), st.sampled_from([0.0, 1.0])), min_size=2,
                      max_size=2), min_size=2, max_size=2)
    .filter(lambda g: any(isinstance(x, bool) for row in g for x in row)))

finite = st.floats(-4, 4)
bad_phase_entries = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(-1, 2), finite)
    .filter(lambda t: t[:2] not in QUBIT_PAIRS).map(list),
    st.sampled_from(sorted(QUBIT_PAIRS)).flatmap(lambda pair: st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, None]), st.lists(finite, max_size=2),
        st.dictionaries(st.text(max_size=2), finite, max_size=1)).map(lambda v: [*pair, v])),
    st.tuples(st.one_of(st.booleans(), st.integers(-1, 1)),
              st.one_of(st.booleans(), st.integers(0, 1)), finite)
    .filter(lambda t: isinstance(t[0], bool) or isinstance(t[1], bool)).map(list),
    st.lists(st.integers(-1, 1), max_size=2), st.lists(finite, min_size=4, max_size=5),
    st.integers(), st.text(max_size=4), st.none())

bad_phases = st.one_of(
    st.lists(bad_phase_entries, min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), finite, min_size=1, max_size=2),
    st.text(min_size=1, max_size=4), st.integers(), st.booleans())

bad_specs = st.one_of(
    bad_levels.map(lambda lv: {**IDENTITY_SPEC, "levels": lv}),
    bad_gammas.map(lambda g: {**IDENTITY_SPEC, "gamma": g}),
    bad_phases.map(lambda ph: {**IDENTITY_SPEC, "phases": ph}),
    st.sampled_from(["levels", "gamma"]).map(
        lambda key: {k: v for k, v in IDENTITY_SPEC.items() if k != key}),
    json_scalars, st.lists(json_scalars, max_size=3))

path_names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     min_size=1, max_size=20)


@FUZZ
@given(st.one_of(
    st.tuples(st.integers(1, 3), st.one_of(bad_grids, tiny_grids)),
    st.tuples(st.integers(max_value=0), st.sampled_from([0.5, 1.0])),
    st.tuples(st.integers(2000, 10**30), st.sampled_from([0.5, 1.0])),
    st.tuples(st.integers(2000, 10**30), tiny_grids)))
def test_su2_tradeoff_two_j_and_grid(case):
    two_j, grid = case
    assert_usage_error(["su2", "tradeoff", f"--two-j={two_j}", f"--grid={grid!r}"])


@FUZZ
@given(st.one_of(st.tuples(st.just("0,1"), st.one_of(bad_grids, tiny_grids)),
                 st.tuples(bad_level_lists, st.just(0.5))))
def test_u1_tradeoff_levels_and_grid(case):
    levels, grid = case
    assert_usage_error(["u1", "tradeoff", f"--levels={levels}", f"--grid={grid!r}"])


@FUZZ
@given(st.one_of(st.tuples(st.integers(0, 2**32), st.integers(max_value=99)),
                 st.tuples(st.integers(max_value=-1), st.integers(100, 200))))
def test_verify_seed_and_samples(case):
    seed, samples = case
    assert_usage_error(["verify", "all", f"--seed={seed}", f"--samples={samples}"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(bad_specs.map(lambda obj: json.dumps(obj).encode()),
                 st.binary(max_size=12)))
def test_u1_build_spec(payload):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_bytes(payload)
        assert_usage_error(["u1", "build", f"--json={spec}"])


@FUZZ
@given(st.sampled_from([
    ["su2", "tradeoff", "--two-j=1", "--grid=0.5"],
    ["u1", "tradeoff", "--levels=0,1", "--grid=0.5"],
    ["su2", "channel", "--two-jA=1", "--two-jB=1", "--two-L=2"],
    ["u1", "build", "--json={spec}"],
    ["u1", "build", "--json={missing}"],
]), st.one_of(st.none(), path_names))
def test_unreadable_or_unwritable_paths(command, name):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(IDENTITY_SPEC))
        missing = f"{tmp}/missing/"
        argv = [arg.format(spec=spec, missing=missing + "spec.json") for arg in command]
        # --out is the existing directory itself, or a path below a missing one
        # (joined as text, so a name starting with "/" stays below it)
        out = tmp if name is None else missing + name
        if "{missing}" not in command[-1]:
            argv.append(f"--out={out}")
        assert_usage_error(argv)
