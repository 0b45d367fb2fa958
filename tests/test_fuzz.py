"""Fuzzed input boundary: every outcome is an exit code, never a traceback.

Deterministic (``derandomize=True``), so a failure reproduces on every run.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from geostab import search
from geostab.cli import main
from geostab.colourings import KINDS, TIE_RULES, free_point_codes

_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(-2, 8), max_size=3), st.just({}),
)


_USES = {
    "majority": ("t", "k", "tie"),
    "partition": ("t", "k", "partition"),
    "aqj": ("t", "s", "j", "partition"),
    "table": ("table",),
    "constant": ("j",),
}


_CORRUPTIONS = ("none", "none", "junk", "nudge", "drop", "extra", "other")


@st.composite
def _spec(draw, corruptions=_CORRUPTIONS):
    """A spec that is often well formed: n <= 6 and, for its kind, the fields
    it uses in their ranges; then at most one corruption (a junk or nudged
    value, a dropped field, an unknown field or a field the kind does not
    read)."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 6))
    t = draw(st.integers(0, (n - 1) // 2))
    coords = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    values = {
        "t": t,
        "k": draw(st.integers(1, n)),
        "s": draw(st.integers(0, 2)),
        "j": draw(st.integers(0, 1)),
        "tie": draw(st.sampled_from(TIE_RULES)),
        "partition": [list(coords[a:b]) for a, b in zip([0] + cuts, cuts + [n])][1:],
        "table": format(draw(st.integers(0, (1 << (1 << n)) - 1)), f"0{max(1, (1 << n) // 4)}x"),
    }
    spec = {"kind": kind, "n": n, **{name: values[name] for name in _USES[kind]}}
    corruption = draw(st.sampled_from(corruptions))
    name = draw(st.sampled_from(sorted(spec)))
    if corruption == "junk":
        spec[name] = draw(_JUNK)
    elif corruption == "nudge" and isinstance(spec[name], int):
        spec[name] += draw(st.sampled_from([-2, -1, 1, 2, 1 << 40]))
    elif corruption == "drop":
        del spec[name]
    elif corruption == "extra":
        spec[draw(st.text(max_size=5))] = draw(_JUNK)
    elif corruption == "other":
        other = draw(st.sampled_from(sorted(set(values) - set(_USES[kind]))))
        spec[other] = values[other]
    return spec


_DOCUMENT = st.one_of(
    _spec().map(json.dumps),
    _spec().map(json.dumps),
    _spec().map(json.dumps),
    _spec(("other",)).map(json.dumps),
    _spec().map(lambda spec: json.dumps(spec)[:-1]),  # truncated
    st.one_of(_JUNK, st.lists(_spec(), max_size=1)).map(json.dumps),  # not an object
    st.integers(0, 10**5).map(lambda depth: "[" * depth + "]" * depth),  # nested
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(document=_DOCUMENT, command=st.sampled_from(["inst", "winst"]))
def test_spec_file_outcome_is_an_exit_code(document, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            fh.write(document)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--colouring", path, "--out", os.path.join(tmp, "r.json")])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
        # a null field counts as absent; every other field is one its kind reads
        spec = json.loads(document)
        given = {name for name, value in spec.items() if value is not None}
        assert given <= {"kind", "n", *_USES[spec["kind"]]}, spec
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


_HEX = "0123456789abcdefABCDEF"


@st.composite
def _table_text(draw):
    """Table text for n = k <= 5: often hex of the right width in either
    case with surrounding whitespace, else near-hex or arbitrary text."""
    k = draw(st.integers(1, 5))
    width = -(-(1 << k) // 4)
    spaces = st.text(" \t\n", max_size=2)
    near = st.text(_HEX + "+-_x ٣０\n", max_size=width + 2)
    body = draw(st.one_of(st.text(_HEX, min_size=width, max_size=width), near, st.text(max_size=10)))
    return k, draw(spaces) + body + draw(spaces)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=_table_text(), via_spec=st.booleans())
def test_table_text_outcome_is_an_exit_code(case, via_spec):
    k, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if via_spec:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump({"kind": "table", "n": k, "table": text}, fh)
            args = ["inst", "--colouring", path]
        else:
            args = ["inst", "--kind", "table", "--n", str(k), f"--table={text}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args + ["--out", os.path.join(tmp, "r.json")])
    digits = text.strip()
    well_formed = len(digits) == -(-(1 << k) // 4) and set(digits) <= set(_HEX)
    assert code in (0, 2)
    if code == 0:
        assert well_formed and err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert not (well_formed and int(digits, 16) >> (1 << k) == 0), text


@functools.cache
def _sweep_4_0(mode):
    """The orbit representatives and sizes of the (4,0) sweep and its fresh
    result: minimum and argmin as the ``search`` report gives them."""
    reps, sizes = search._orbits(4, free_point_codes(4, 0))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.json")
        assert main(["search", "--n", "4", "--t", "0", "--mode", mode, "--out", out]) == 0
        with open(out) as fh:
            outputs = json.load(fh)["outputs"]
    return reps, sizes, (outputs["minimum"], outputs["argmin"])


def _valid_checkpoint(mode, done):
    """The v3 checkpoint the (4,0) sweep writes once it has scored its first
    ``done`` representatives."""
    reps, sizes, _ = _sweep_4_0(mode)
    key = {"n": 4, "t": 0, "mode": mode, "F": 14}
    best = search._score(4, 0, mode, reps[:done]) if done else None
    return search._checkpoint(key, reps, sizes, done, best)


@st.composite
def _checkpoint_text(draw):
    """A checkpoint of the (4,0) sweep, often valid, for either mode and
    after 0, 1, half or all of its 518 representatives; then at most one
    corruption (a junk, boolean or nudged value, a dropped or unknown field,
    truncated text)."""
    state = _valid_checkpoint(draw(st.sampled_from(["inst", "winst"])),
                              draw(st.sampled_from([0, 1, 259, 517, 518])))
    corruption = draw(st.sampled_from(
        ["none", "none", "junk", "true", "nudge", "drop", "extra", "truncate"]))
    name = draw(st.sampled_from(sorted(state)))
    if corruption == "junk":
        state[name] = draw(_JUNK)
    elif corruption == "true":
        ints = [k for k, v in state.items() if type(v) is int]
        state[draw(st.sampled_from(ints))] = True
    elif corruption == "nudge" and type(state[name]) is int:
        state[name] += draw(st.sampled_from([-2, -1, 1, 2, 1 << 40]))
    elif corruption == "nudge" and name == "best" and state["best"]:
        state["best"] = [state["best"][0], state["best"][1] + draw(st.sampled_from([-1, 1]))]
    elif corruption == "drop":
        del state[name]
    elif corruption == "extra":
        state[draw(st.text(max_size=5))] = draw(_JUNK)
    text = json.dumps(state)
    if corruption == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


_CHECKPOINT_DOCUMENT = st.one_of(
    _checkpoint_text(),
    _checkpoint_text(),
    _checkpoint_text(),
    st.one_of(_JUNK, st.lists(_checkpoint_text(), max_size=1)).map(json.dumps),
    st.integers(0, 10**5).map(lambda depth: "[" * depth + "]" * depth),  # nested
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(document=_CHECKPOINT_DOCUMENT, mode=st.sampled_from(["inst", "winst"]))
def test_checkpoint_outcome_is_an_exit_code(document, mode):
    reps, _, fresh = _sweep_4_0(mode)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "sweep.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            fh.write(document)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["search", "--n", "4", "--t", "0", "--mode", mode, "--resume", path,
                         "--out", out])
        if code == 0:
            with open(out) as fh:
                outputs = json.load(fh)["outputs"]
    # a resume is accepted only from the very state the sweep writes
    try:
        state = json.loads(document)
    except (json.JSONDecodeError, RecursionError):
        state = None
    done = state.get("orbits_scanned") if isinstance(state, dict) else None
    valid = type(done) is int and 0 <= done <= len(reps) and (
        json.dumps(state) == json.dumps(_valid_checkpoint(mode, done)))
    assert code == (0 if valid else 2), (code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
        assert (outputs["minimum"], outputs["argmin"]) == fresh
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
