"""CLI behaviour: reports, exit codes, spec files, determinism."""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from geostab.bounds import (
    best_lower_bound,
    formula_bounds,
    known_exact_value,
    morestrips_lb,
    zigzag_inst_formula,
    zigzag_winst_formula,
)
from geostab.cli import build_parser, load_spec, main
from geostab.colourings import (
    ColouringSpec,
    balanced_partition,
    make,
    respects_balls,
    spec_from_json_dict,
    spec_to_json_dict,
    table_from_free_layers,
)
from geostab.errors import ValidationError
from geostab.hypercube import Geodesic, Point, expand, is_geodesic
from geostab.instability import jumps_of_path
from geostab.search import min_inst_exhaustive, min_winst_exhaustive, random_colouring


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_inst_inline_majority(capsys):
    code, report = run_json(
        ["inst", "--kind", "majority", "--n", "5", "--t", "1", "--k", "3"], capsys
    )
    assert code == 0
    assert report["outputs"]["value"] == 3
    assert report["outputs"]["witness_valid"] is True
    assert report["outputs"]["witness_jumps"] == 3


def test_winst_inline(capsys):
    code, report = run_json(
        ["winst", "--kind", "majority", "--n", "6", "--t", "2", "--k", "5"], capsys
    )
    assert code == 0
    assert report["outputs"]["value"] == 5
    assert report["outputs"]["t_used"] == 2


_MAJ_7_2_4 = {"kind": "majority", "n": 7, "t": 2, "k": 4, "tie": "one"}


@pytest.mark.parametrize(
    "args, colouring",
    [
        (["--construction", "majority", "--n", "6", "--t", "2", "--k", "3"],
         {"kind": "majority", "n": 6, "t": 2, "k": 3}),
        (["--construction", "majority", "--colouring", "SPEC"], _MAJ_7_2_4),
        (["--construction", "partition", "--n", "6", "--t", "2", "--k", "3"],
         {"kind": "partition", "n": 6, "t": 2, "k": 3, "partition": [[4, 5, 6]]}),
        (["--construction", "partition", "--n", "8", "--t", "2", "--k", "1",
          "--partition", "2,4,6;3,5,7,8"],
         {"kind": "partition", "n": 8, "t": 2, "k": 1, "partition": [[2, 4, 6], [3, 5, 7, 8]]}),
        (["--construction", "zigzag", "--mode", "a", "--kind", "majority",
          "--n", "7", "--t", "2", "--k", "5"], None),
        (["--construction", "zigzag", "--mode", "b", "--kind", "majority",
          "--n", "7", "--t", "2", "--k", "5"], None),
        (["--construction", "strip", "--mode", "one_strip", "--kind", "majority",
          "--n", "8", "--t", "3", "--k", "7"], None),
        (["--construction", "strip", "--mode", "multi_strip", "--kind", "majority",
          "--n", "9", "--t", "3", "--k", "7"], None),
        (["--construction", "kdefined", "--kind", "majority", "--n", "7", "--t", "2", "--k", "1"],
         None),
        # k = n-2t-1 with 0^k coloured 1 and 1^k coloured 0: the escape path
        # promises 2t+1 = 3 jumps, the most any well-ending geodesic makes
        (["--construction", "kdefined", "--k", "1", "--kind", "table", "--n", "4",
          "--table", "fcc0"], None),
    ],
)
def test_witness_constructions(tmp_path, capsys, args, colouring):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_MAJ_7_2_4))
    args = [str(spec) if a == "SPEC" else a for a in args]
    code, report = run_json(["witness", *args], capsys)
    assert code == 0
    assert report["outputs"]["witness_valid"] is True
    assert report["outputs"]["actual_jumps"] >= report["outputs"]["guaranteed_jumps"]
    if colouring is not None:
        assert report["inputs"]["colouring"] == colouring


def test_kdefined_k_stays_out_of_a_table_colouring(capsys):
    # --k reaches the construction, which promises 2t+1 = 3 jumps here, and
    # stays out of the table colouring, which never reads it
    code, report = run_json(
        ["witness", "--construction", "kdefined", "--k", "1", "--kind", "table", "--n", "4",
         "--table", "fcc0"],
        capsys,
    )
    assert code == 0
    assert report["outputs"]["witness_valid"] is True
    assert report["outputs"]["guaranteed_jumps"] == 3
    assert report["inputs"]["colouring"] == {"kind": "table", "n": 4, "table": "fcc0"}


@pytest.mark.parametrize(
    "args",
    [
        ["witness", "--construction", "majority", "--n", "5", "--t", "1", "--k", "2",
         "--tie", "zero"],
        ["witness", "--construction", "majority", "--kind", "partition", "--n", "6", "--t", "2",
         "--k", "3"],
        ["witness", "--construction", "kdefined", "--kind", "table", "--n", "2", "--table", "6"],
        # inline colouring arguments that inst refuses
        ["inst", "--colouring", "missing.json"],
        ["inst", "--kind", "partition", "--n", "7", "--partition", "1,a"],
        ["inst", "--n", "5"],
        ["inst", "--kind", "majority"],
        ["inst", "--kind", "partition", "--n", "7"],
    ],
)
def test_witness_refusals_exit_2(tmp_path, monkeypatch, capsys, args):
    # arguments the parser accepts and the command refuses; run where no
    # spec file exists
    monkeypatch.chdir(tmp_path)
    assert _assert_refused(main(args), capsys).startswith("invalid parameters: ")


def test_witness_report_revalidates_on_reload(capsys):
    code, report = run_json(
        ["witness", "--construction", "majority", "--n", "6", "--t", "2", "--k", "3"],
        capsys,
    )
    assert code == 0
    bits, flips = report["outputs"]["witness"].split(" | ")
    pts = expand(Geodesic(Point.from_bit_string(bits), tuple(int(c) for c in flips.split(","))))
    assert is_geodesic(pts)
    f = make(ColouringSpec(kind="majority", n=6, t=2, k=3))
    assert jumps_of_path(f, pts) == report["outputs"]["witness_jumps"]
    assert report["outputs"]["actual_jumps"] >= report["outputs"]["guaranteed_jumps"]


def test_bounds_csv_rows(capsys):
    code, out = run_cli(["--format", "csv", "bounds", "--n", "3:11"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    expected = sum((n - 1) // 2 + 1 for n in range(3, 12))
    assert len(rows) == expected
    assert {"n", "t", "k", "mode", "value", "witness"} == set(rows[0])


@pytest.mark.parametrize(
    "args, row",
    [
        (["inst", "--kind", "majority", "--n", "5", "--t", "1", "--k", "3"],
         {"n": "5", "t": "1", "k": "3", "mode": "inst", "value": "3"}),
        (["winst", "--kind", "majority", "--n", "6", "--t", "2", "--k", "5"],
         {"n": "6", "t": "2", "k": "5", "mode": "winst", "value": "5"}),
        (["witness", "--construction", "majority", "--n", "6", "--t", "2", "--k", "3"],
         {"n": "6", "t": "2", "k": "3", "mode": "majority", "value": "5"}),
        (["search", "--n", "4", "--t", "1", "--mode", "winst"],
         {"n": "4", "t": "1", "k": "", "mode": "search-winst", "value": "3", "witness": ""}),
        (["verify", "--suite", "conjecture", "--max-n", "3"],
         {"n": "", "t": "", "k": "", "mode": "inst(2,0) = 1", "value": "1", "witness": ""}),
    ],
)
def test_csv_rows_per_command(capsys, args, row):
    code, out = run_cli(["--format", "csv", *args], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {k: v for k, v in rows[0].items() if k in row} == row
    _, report = run_json(args, capsys)
    if args[0] == "verify":
        assert [r["mode"] for r in rows] == [v["claim"] for v in report["verdicts"]]
    else:
        assert len(rows) == 1
        assert rows[0]["witness"] == (report["outputs"].get("witness") or "")


def test_verify_zigzag_suite_passes_and_repeats(capsys):
    args = ["verify", "--suite", "zigzag", "--max-n", "6", "--seed", "3"]
    code, report = run_json(args, capsys)
    assert code == 0
    assert report["outputs"] == {"checked": 6, "failed": 0}
    assert all(v["status"] == "pass" for v in report["verdicts"])
    _, again = run_json(args, capsys)
    report.pop("timing")
    again.pop("timing")
    assert again == report


def test_bounds_single_pair(capsys):
    code, report = run_json(["bounds", "--n", "8", "--t", "3"], capsys)
    assert code == 0
    (bt,) = report["outputs"]["bounds"]
    assert bt["zigzag_winst_lb"] == 4
    assert bt["zigzag_inst_lb"] == 5
    assert bt["one_strip_lb"] == 6


def test_spec_file_round_trip(tmp_path, capsys):
    spec = ColouringSpec(
        kind="partition", n=6, t=2, k=3, partition=balanced_partition(6, 2, 3)
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json_dict(spec)))
    assert load_spec(str(path)) == spec
    path.write_text(json.dumps(spec_to_json_dict(load_spec(str(path)))))
    assert load_spec(str(path)) == spec

    code, report = run_json(["inst", "--colouring", str(path)], capsys)
    assert code == 0
    assert report["outputs"]["value"] == 5


def test_spec_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "table", "n": 3, "table": "fff"}')  # 2^3 bits need 2 digits
    code, _ = run_cli(["inst", "--colouring", str(bad)], capsys)
    assert code == 2

    bad.write_text('{"kind": "partition", "n": 7, "t": 2, "k": 1, '
                   '"partition": [[2,3,4],[4,5,6,7]]}')
    code, _ = run_cli(["inst", "--colouring", str(bad)], capsys)
    assert code == 2

    bad.write_text("{not json")
    with pytest.raises(ValidationError) as err:
        load_spec(str(bad))
    assert "line" in str(err.value)


def test_exit_code_capacity(capsys):
    code, _ = run_cli(["search", "--n", "6", "--t", "1"], capsys)
    assert code == 4


def test_search_beyond_dimension_cap_exit_4(capsys):
    code = main(["search", "--n", "100", "--t", "0"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "dimension 100" in captured.err and "Traceback" not in captured.err


def test_verify_conjecture_small(capsys):
    # exactly the pairs under the free-point gate: (5,0), (6,0) and (6,1)
    # have more than 22 free points and are skipped
    code, report = run_json(["verify", "--suite", "conjecture", "--max-n", "6"], capsys)
    assert code == 0
    pairs = [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (5, 1), (5, 2), (6, 2)]
    assert [(v["claim"], v["value"]) for v in report["verdicts"]] == [
        (f"inst({n},{t}) = {2 * t + 1}", 2 * t + 1) for n, t in pairs
    ]


def test_verify_oracle_and_exit3(monkeypatch, capsys):
    code, report = run_json(["verify", "--suite", "oracle", "--max-n", "3"], capsys)
    assert code == 0
    assert all(v["status"] == "pass" for v in report["verdicts"])

    import geostab.cli as cli_mod

    def broken(max_n, seed):
        return [{"claim": "forced", "status": "FAIL"}]

    monkeypatch.setitem(cli_mod._SUITES, "oracle", broken)
    code, _ = run_cli(["verify", "--suite", "oracle"], capsys)
    assert code == 3


def test_search_subcommand(tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt.json")
    code, report = run_json(
        ["search", "--n", "4", "--t", "1", "--mode", "winst", "--resume", ckpt], capsys
    )
    assert code == 0
    assert report["outputs"]["minimum"] == 3
    assert report["outputs"]["colourings_scanned"] == 64
    # resuming a finished sweep is a no-op with the same result
    code, report2 = run_json(
        ["search", "--n", "4", "--t", "1", "--mode", "winst", "--resume", ckpt], capsys
    )
    assert code == 0
    assert report2["outputs"]["minimum"] == 3


def test_report_determinism_modulo_timing(capsys):
    args = ["inst", "--kind", "majority", "--n", "5", "--t", "2", "--k", "5"]
    _, a = run_json(args, capsys)
    _, b = run_json(args, capsys)
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(
        ["--out", str(out), "inst", "--kind", "constant", "--n", "3", "--j", "0"],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["value"] == 0


def test_search_and_conjecture_report_orbits(capsys):
    code, report = run_json(["search", "--n", "4", "--t", "0", "--mode", "winst"], capsys)
    assert code == 0
    assert report["outputs"]["orbits_scanned"] == 518
    assert report["outputs"]["colourings_scanned"] == 1 << 14
    code, report = run_json(["verify", "--suite", "conjecture", "--max-n", "3"], capsys)
    assert code == 0
    scanned = {v["claim"]: (v["orbits_scanned"], v["colourings_scanned"]) for v in report["verdicts"]}
    assert scanned["inst(3,0) = 1"] == (13, 64)


@pytest.mark.parametrize(
    "content",
    [
        '{"version": 2, "n": 4, "t": 1, "mode": "inst", "F"',  # truncated
        '{"n": 4, "t": 1, "mode": "inst", "next_counter": 0, "scanned": 0, '
        '"best": null}',  # legacy, no version
        '{"version": 3, "n": 4, "t": 1, "mode": "inst", "F": 6, "next_counter": 65, '
        '"orbits_scanned": 0, "scanned": 0, "best": null}',
        # three of the seven orbits scored, with a forged and a missing minimum
        '{"version": 3, "n": 4, "t": 1, "mode": "inst", "F": 6, "next_counter": 7, '
        '"orbits_scanned": 3, "scanned": 38, "best": [-1, 0]}',
        '{"version": 3, "n": 4, "t": 1, "mode": "inst", "F": 6, "next_counter": 7, '
        '"orbits_scanned": 3, "scanned": 38, "best": null}',
        # the finished sweep as the v2 format wrote it, with a second minimum
        '{"n": 4, "t": 1, "mode": "inst", "F": 6, "version": 2, "next_counter": 64, '
        '"orbits_scanned": 7, "scanned": 64, "best": [3, 7], "best_exact": [3, 7]}',
    ],
)
def test_search_resume_refuses_bad_checkpoint(tmp_path, capsys, content):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(content)
    err = _assert_refused(main(["search", "--n", "4", "--t", "1", "--resume", str(ckpt)]), capsys)
    assert "checkpoint" in err


def test_search_resume_refuses_checkpoint_with_forged_minimum(tmp_path, capsys):
    # a finished (5,1) sweep whose best is a scored representative of value 5,
    # where the true minimum is 3
    ckpt = tmp_path / "ckpt.json"
    code, report = run_json(["search", "--n", "5", "--t", "1", "--resume", str(ckpt)], capsys)
    assert code == 0 and report["outputs"]["minimum"] == 3
    state = json.loads(ckpt.read_text())
    state["best"] = [5, 1]
    ckpt.write_text(json.dumps(state))
    err = _assert_refused(main(["search", "--n", "5", "--t", "1", "--resume", str(ckpt)]), capsys)
    assert "rescore" in err


@pytest.mark.parametrize(
    "suite, max_n",
    [("majo", 0), ("block", 0), ("zigzag", 0), ("conjecture", 0), ("oracle", 0),
     ("zigzag", 2), ("oracle", 2)],
)
def test_verify_that_checks_nothing_exit_2(capsys, suite, max_n):
    err = _assert_refused(main(["verify", "--suite", suite, "--max-n", str(max_n)]), capsys)
    assert suite in err and f"--max-n {max_n}" in err


def _assert_refused(code, capsys, expected=2):
    captured = capsys.readouterr()
    assert code == expected and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--n", "5", "--t", "1"],
        ["witness", "--construction", "majority", "--n", "5", "--t", "1", "--k", "3"],
    ],
)
def test_malformed_dimension_cap_env_exit_2(monkeypatch, capsys, args):
    monkeypatch.setenv("GEOSTAB_MAX_N", "x")
    assert "GEOSTAB_MAX_N" in _assert_refused(main(args), capsys)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_dimension_cap_env_below_one_exit_2(monkeypatch, capsys, value):
    # a cap below 1 would refuse every engine call as a capacity excess (exit 4)
    monkeypatch.setenv("GEOSTAB_MAX_N", value)
    for args in (["bounds", "--n", "5", "--t", "1"],
                 ["inst", "--kind", "majority", "--n", "5", "--t", "1", "--k", "3"]):
        err = _assert_refused(main(args), capsys)
        assert err == f"invalid parameters: GEOSTAB_MAX_N must be a positive integer, got '{value}'\n"


def test_unwritable_out_file_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    err = _assert_refused(main(["--out", str(out), "bounds", "--n", "5", "--t", "1"]), capsys)
    assert "cannot write report" in err


def test_unwritable_checkpoint_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "missing" / "ck.json"
    err = _assert_refused(main(["search", "--n", "4", "--t", "1", "--resume", str(ckpt)]), capsys)
    assert "cannot write checkpoint" in err


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--n", "100", "--t", "0"],
        ["inst", "--kind", "constant", "--n", "14", "--j", "0"],
    ],
)
def test_capacity_message_names_only_the_env_variable(capsys, args):
    err = _assert_refused(main(args), capsys, expected=4)
    assert "GEOSTAB_MAX_N" in err and "cap=" not in err


@pytest.mark.parametrize(
    "fields",
    [
        '"k": "x"',
        '"k": 3.0',
        '"k": 3.7',
        '"k": [3]',
        '"k": true',
        '"t": "1"',
        '"n": 5.0',
        '"n": "5"',
        '"n": false',
        '"n": null',
        '"j": {}',
        '"s": 1.5',
        '"partition": [[4, 5, "x"]]',
        '"partition": [[4, 5, 6.0]]',
        '"partition": [4, 5, 6]',
        '"partition": "456"',
    ],
)
def test_spec_file_non_integer_fields_exit_2(tmp_path, capsys, fields):
    base = {"kind": "majority", "n": 5, "t": 1, "k": 3}
    extra = json.loads("{" + fields + "}")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**base, **extra}))
    _assert_refused(main(["inst", "--colouring", str(spec)]), capsys)


@pytest.mark.parametrize(
    "document",
    [
        {"kind": "majority", "n": 5, "t": 1, "k": 2, "tie": 0},
        {"kind": "majority", "n": 5, "t": 1, "k": 2, "tie": ""},
        {"kind": "majority", "n": 5, "t": 1, "k": 2, "tie": False},
        {"kind": "table", "n": 2, "table": "6", "tie": [1, 2]},
    ],
)
def test_spec_file_tie_that_is_no_rule_exit_2(tmp_path, capsys, document):
    # a falsy tie is not the default rule, and a tie is a string for every kind
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    _assert_refused(main(["inst", "--colouring", str(spec)]), capsys)


# one spec per kind that sets every field the kind reads
_CLEAN_SPECS = {
    "majority": {"kind": "majority", "n": 5, "t": 1, "k": 2, "tie": "one"},
    "partition": {"kind": "partition", "n": 6, "t": 2, "k": 3, "partition": [[4, 5, 6]]},
    "aqj": {"kind": "aqj", "n": 4, "t": 1, "s": 1, "j": 0, "partition": [[1, 2], [3, 4]]},
    "table": {"kind": "table", "n": 2, "table": "6"},
    "constant": {"kind": "constant", "n": 3, "j": 1},
}
_OPTIONAL = ("t", "k", "tie", "partition", "j", "s", "table")
_MAY_BE_LEFT_OUT = {("majority", "tie"), ("partition", "partition")}


def _with(spec, name):
    """``spec`` plus a well-typed ``name``; a table is all zeros of its width."""
    values = {"t": 1, "k": 1, "tie": "one", "partition": [[1, 2]], "j": 0, "s": 0,
              "table": "0" * max(1, (1 << spec["n"]) // 4)}
    return {**spec, name: values[name]}


@pytest.mark.parametrize(
    "document, message",
    [pytest.param(_with(spec, name), f"{kind} does not read {name}", id=f"{kind}-{name}")
     for kind, spec in _CLEAN_SPECS.items() for name in _OPTIONAL if name not in spec]
    # table-tie is {"kind": "table", "n": 2, "table": "6", "tie": "one"}, which
    # once ran and echoed its tie; the next is README's old table example
    + [pytest.param({"kind": "table", "n": 4, "t": 1, "table": "fee8"}, "table does not read t",
                    id="readme-table")],
)
def test_spec_field_its_kind_does_not_read_exit_2(tmp_path, capsys, document, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    refusal = _assert_refused(main(["inst", "--colouring", str(path)]), capsys)
    assert refusal == f"invalid parameters: {message}\n"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make(spec_from_json_dict(document))


@pytest.mark.parametrize(
    "kind, name",
    [(kind, name) for kind, spec in _CLEAN_SPECS.items() for name in spec
     if name not in ("kind", "n") and (kind, name) not in _MAY_BE_LEFT_OUT],
)
def test_spec_without_a_field_its_kind_needs_exit_2(tmp_path, capsys, kind, name):
    document = {key: value for key, value in _CLEAN_SPECS[kind].items() if key != name}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    refusal = _assert_refused(main(["inst", "--colouring", str(path)]), capsys)
    assert refusal == f"invalid parameters: {kind} needs {name}\n"


def test_inline_flags_a_kind_does_not_read_are_left_out(capsys):
    code, report = run_json(["inst", "--kind", "table", "--n", "2", "--table", "6", "--t", "1"],
                            capsys)
    assert code == 0
    assert report["inputs"]["colouring"] == {"kind": "table", "n": 2, "table": "6"}


def _readme_spec_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Colouring spec files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_spec_examples_run(tmp_path, capsys):
    lines = _readme_spec_examples()
    assert lines
    path = tmp_path / "spec.json"
    for line in lines:
        path.write_text(line)
        assert main(["inst", "--colouring", str(path), "--out", str(tmp_path / "r.json")]) == 0, line
        assert capsys.readouterr().err == ""


def _inline_flags(spec):
    """The inline flags that carry a spec object's fields, ``partition`` as
    ``--partition`` text."""
    flags = []
    for name, value in spec.items():
        if name == "partition":
            value = ";".join(",".join(str(i) for i in block) for block in value)
        flags.append(f"--{name}={value}")
    return flags


@pytest.mark.parametrize(
    "spec",
    [json.loads(line) for line in _readme_spec_examples()] + [
        {"kind": "partition", "n": 6, "t": 2, "k": 3},  # the balanced partition, [[4, 5, 6]]
        {"kind": "partition", "n": 5, "t": 2, "k": 5},  # s = -1, the empty partition
    ],
)
@pytest.mark.parametrize("command", ["inst", "winst"])
def test_spec_file_and_inline_flags_give_one_report(tmp_path, capsys, spec, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for fmt in ("json", "csv"):
        reports = []
        for source in (["--colouring", str(path)], _inline_flags(spec)):
            code = main(["--format", fmt, command, *source])
            out, err = capsys.readouterr()
            reports.append((code, re.sub(r'"elapsed_s": [^\n]*', '"elapsed_s": null', out), err))
        assert reports[0] == reports[1], spec
    if spec == {"kind": "partition", "n": 6, "t": 2, "k": 3}:
        code, report = run_json(["inst", "--colouring", str(path)], capsys)
        assert code == 0 and report["inputs"]["colouring"]["partition"] == [[4, 5, 6]]


@pytest.mark.parametrize("command", ["spec", "checkpoint"])
def test_file_that_is_not_utf8_exit_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"kind": "constant", "n": 3, "j": 1, "x": "\xff"}')
    args = (["inst", "--colouring", str(path)] if command == "spec"
            else ["search", "--n", "4", "--t", "1", "--resume", str(path)])
    err = _assert_refused(main(args), capsys)
    assert "utf-8" in err


@pytest.mark.parametrize("n, t", [(4, 2), (3, -1)])
def test_one_radius_rule_and_refusal(capsys, n, t):
    message = f"t={t} is not valid for n={n}: need 0 <= t and 2t+1 <= n"
    entry_points = [
        lambda: formula_bounds(n, t),
        lambda: best_lower_bound(n, t, "inst"),
        lambda: known_exact_value(n, t),
        lambda: morestrips_lb(n, t, 0, 1),
        lambda: zigzag_winst_formula(n, t),
        lambda: zigzag_inst_formula(n, t),
        lambda: make(ColouringSpec(kind="majority", n=n, t=t, k=1)),
        lambda: respects_balls(make(ColouringSpec(kind="constant", n=n, j=0)), t),
        lambda: table_from_free_layers(n, t, []),
        lambda: min_inst_exhaustive(n, t),
        lambda: min_winst_exhaustive(n, t),
        lambda: random_colouring(n, t, seed=0),
    ]
    for call in entry_points:
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message
    for args in (["bounds", "--n", str(n), "--t", str(t)],
                 ["search", "--n", str(n), "--t", str(t)],
                 ["inst", "--kind", "majority", "--n", str(n), "--t", str(t), "--k", "1"]):
        assert _assert_refused(main(args), capsys) == f"invalid parameters: {message}\n"


@pytest.mark.parametrize("n_arg", ["3:x", "x", "3:", ":4", "1:2:3", "3.5", "3:1", "0", "-4"])
def test_bounds_malformed_n_exit_2(capsys, n_arg):
    _assert_refused(main(["bounds", "--n", n_arg]), capsys)


@pytest.mark.parametrize(
    "document",
    [
        '{"kind": "table", "n": 3, "table": 33}',
        '{"kind": "table", "n": 3, "table": "\\u0663\\u0663"}',  # Arabic-Indic digits
        '{"kind": "table", "n": 4, "table": "+fe8"}',
        '{"kind": "table", "n": 4, "table": "f_e8"}',
    ],
)
def test_spec_file_table_that_is_not_hex_text_exit_2(tmp_path, capsys, document):
    spec = tmp_path / "spec.json"
    spec.write_text(document)
    _assert_refused(main(["inst", "--colouring", str(spec)]), capsys)


@pytest.mark.parametrize(
    "args", [["inst", "--seed", "1", "--kind", "majority", "--n", "5", "--t", "1", "--k", "3"],
             ["--seed", "9", "bounds", "--n", "5"], ["search", "--n", "4", "--t", "1", "--seed", "2"],
             ["bounds", "--n", "5", "--t", "x"],
             ["witness", "--construction", "bogus", "--kind", "majority", "--n", "5", "--t", "1",
              "--k", "3"],
             ["verify", "--suite", "bogus", "--max-n", "3"]]
)
def test_seed_outside_verify_exit_2(capsys, args):
    # argparse refusals, like every other refusal, are one stderr line; the
    # parser's choices are the only check on construction and suite names
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("invalid parameters: ")


@pytest.mark.parametrize("suite", ["majo", "block", "conjecture"])
def test_verify_seed_refused_by_suites_that_draw_nothing(capsys, suite):
    err = _assert_refused(main(["verify", "--suite", suite, "--seed", "9"]), capsys)
    assert suite in err and "--seed" in err
    code, report = run_json(["verify", "--suite", suite, "--max-n", "3"], capsys)
    assert code == 0 and report["inputs"] == {"suite": suite, "max_n": 3}


@pytest.mark.parametrize("suite, checked", [("majo", 231), ("block", 44)])
def test_verify_optimality_suites_at_the_cap(capsys, suite, checked):
    # every maj_t(k) and balanced b_t^k grid up to n = 13 through the CLI
    code, report = run_json(["verify", "--suite", suite, "--max-n", "13"], capsys)
    assert code == 0 and report["outputs"] == {"checked": checked, "failed": 0}


def test_verify_seed_reaches_the_suite(monkeypatch, capsys):
    import geostab.cli as cli_mod

    seeds = []
    draw = cli_mod.random_colouring

    def recorded(n, t, seed, exact_tf=False):
        seeds.append(seed)
        return draw(n, t, seed, exact_tf)

    monkeypatch.setattr(cli_mod, "random_colouring", recorded)
    code, report = run_json(["verify", "--suite", "oracle", "--seed", "1"], capsys)
    del report["timing"]
    claim = "inst_exact = inst_bruteforce on 50 random colourings, n={}"
    assert code == 0 and report == {
        "command": "verify",
        "engine": {"name": "geostab", "version": "0.1.0", "dimension_cap": 13},
        "inputs": {"suite": "oracle", "max_n": 6, "seed": 1},
        "outputs": {"checked": 3, "failed": 0},
        "verdicts": [{"claim": claim.format(n), "status": "pass"} for n in (3, 4, 5)],
    }
    assert seeds[:2] == [1 + 97 * 3, 1 + 97 * 3 + 1]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call of a process: a refusal, a help request
    # and a CSV report to a file in between leave a later report unchanged
    assert build_parser() is build_parser()
    args = ["inst", "--kind", "majority", "--n", "6", "--t", "2", "--k", "3"]

    def masked_report():
        code, out = run_cli(args, capsys)
        return code, re.sub(r'"elapsed_s": [^\n]*', '"elapsed_s": null', out)

    first = masked_report()
    with pytest.raises(SystemExit) as exc:
        main(["inst", "--kind", "bogus", "--n", "6"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(["inst", "--help"])
    assert exc.value.code == 0 and "--colouring" in capsys.readouterr().out
    out = tmp_path / "report.csv"
    assert main(["inst", "--kind", "majority", "--n", "5", "--t", "1", "--k", "3",
                 "--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text().startswith("n,t,k,mode,value,witness")
    assert masked_report() == first
    assert first[0] == 0 and '"value": 5' in first[1]
