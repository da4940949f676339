"""Exit codes, printed output and report stability of the front end."""

from __future__ import annotations

import copy
import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finfun
from finfun import __version__
from finfun.cli import build_parser, load_input, main
from finfun.tabulated import export_tabulated
from finfun.theory import STANDARD_CHECKS
from finfun.zoo import SOURCES, zoo_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_upair_passes(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--max-size", "4")
    assert code == 0
    assert "all 5 checks passed" in out


def test_check_twins_fails_with_mono_counterexample(capsys):
    code, out, err = run(capsys, "check", "zoo:twins")
    assert code == 1
    assert "():0->1" in out
    assert "collapses c and d" in out


def test_check_twins_max_modification_passes(capsys):
    code, out, err = run(capsys, "check", "zoo:twins", "--modify", "max")
    assert code == 0
    assert "twins°" in out


def test_check_twins_min_modification_fails_intersections(capsys):
    code, out, err = run(capsys, "check", "zoo:twins", "--modify", "min")
    assert code == 1
    assert "intersections" in out


def test_check_json_schema(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"tool_version", "functor", "max_size", "checks"}
    assert data["tool_version"] == __version__
    assert data["functor"] == "upair"
    assert data["max_size"] == 3
    assert [c["name"] for c in data["checks"]] == list(STANDARD_CHECKS)
    for c in data["checks"]:
        assert set(c) == {"name", "verdict", "counterexamples"}
        assert c["verdict"] == "pass"
        assert c["counterexamples"] == []


def test_check_json_byte_stable(capsys):
    first = run(capsys, "check", "zoo:twins", "--json")
    second = run(capsys, "check", "zoo:twins", "--json")
    assert first == second
    assert first[0] == 1


def test_check_timing_adds_elapsed(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--json", "--timing")
    data = json.loads(out)
    assert all("elapsed" in c for c in data["checks"])
    code, out, err = run(capsys, "check", "zoo:upair", "--json")
    data = json.loads(out)
    assert all("elapsed" not in c for c in data["checks"])


def test_check_skip(capsys):
    code, out, err = run(capsys, "check", "zoo:twins", "--skip",
                         "mono,supports")
    assert code == 0
    assert "all 3 checks passed" in out


def test_check_skip_unknown_name(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--skip", "nope")
    assert code == 2
    assert "unknown check" in err


def test_check_skip_everything_is_refused(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--skip",
                         "laws,mono,epi,intersections,supports")
    assert (code, out) == (2, "")
    assert err == "error: --skip leaves no check to run\n"
    code, out, err = run(capsys, "check", "zoo:upair", "--json", "--skip",
                         "supports,laws,epi,mono,intersections,laws")
    assert (code, out) == (2, "")
    assert "no check to run" in err


def test_check_seed_changes_nothing_for_lawful_functor(capsys):
    a = run(capsys, "check", "zoo:exp2", "--json", "--seed", "1")
    b = run(capsys, "check", "zoo:exp2", "--json", "--seed", "2")
    assert a[0] == b[0] == 0


# ---------------------------------------------------------------------------
# input handling


def test_unknown_zoo_name(capsys):
    code, out, err = run(capsys, "check", "zoo:nope")
    assert (code, out) == (2, "")
    assert err == ("error: unknown zoo functor 'nope'; available: identity, "
                   "const2, power2, power3, upair, exp2, pointed, twins\n")


def test_missing_file(capsys):
    code, out, err = run(capsys, "check", "/tmp/does-not-exist.ffn")
    assert code == 2
    assert "no such input file" in err


def test_unrecognized_extension(tmp_path, capsys):
    p = tmp_path / "functor.txt"
    p.write_text("shape s/1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert "cannot tell the format" in err


def test_presentation_file_input(tmp_path, capsys):
    p = tmp_path / "pairs.ffn"
    p.write_text(SOURCES["upair"], encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 0
    assert "upair" in out


def test_presentation_file_default_name_is_stem(tmp_path, capsys):
    p = tmp_path / "mypairs.ffn"
    p.write_text("shape p/2\neq p(a,b) = p(b,a)\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", str(p), "--size", "2")
    assert code == 0
    assert "mypairs(2): 3 elements" in out


def test_parse_error_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.ffn"
    p.write_text("shape s/1\neq s(a) = t(a)\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert "line 2" in err and "unknown shape 't'" in err


def test_tabulated_file_input(tmp_path, capsys):
    out_file = tmp_path / "upair.json"
    code, _, _ = run(capsys, "export", "zoo:upair", "--max-size", "2",
                     "--out", str(out_file))
    assert code == 0
    code, out, err = run(capsys, "check", str(out_file), "--max-size", "2")
    assert code == 0
    assert "all 5 checks passed" in out


def test_tabulated_beyond_bound(tmp_path, capsys):
    out_file = tmp_path / "upair.json"
    run(capsys, "export", "zoo:upair", "--max-size", "2", "--out",
        str(out_file))
    code, out, err = run(capsys, "check", str(out_file), "--max-size", "3")
    assert code == 2
    assert "tabulated up to size 2" in err


def test_corrupt_tabulation(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"max_size": 0}', encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert "missing field 'objects'" in err


def test_load_input_is_importable_directly():
    g = load_input("zoo:exp2")
    assert g.name == "exp2"
    assert g.size(3) == 6


# ---------------------------------------------------------------------------
# thin commands


def test_supp_pinned_output(capsys):
    code, out, err = run(capsys, "supp", "zoo:upair", "--size", "3",
                         "--element", "p(0,2)")
    assert code == 0
    assert out == "{0,2}\n"


def test_supp_accepts_index_and_desc_order(capsys):
    code, out, err = run(capsys, "supp", "zoo:upair", "--size", "3",
                         "--element", "2", "--order", "desc")
    assert code == 0
    assert out == "{0,2}\n"


def test_supp_refusal_is_exit_one(capsys):
    code, out, err = run(capsys, "supp", "zoo:twins", "--size", "2",
                         "--element", "c")
    assert code == 1
    assert "property failure" in err
    assert "():0->1" in err


def test_supp_unknown_element(capsys):
    code, out, err = run(capsys, "supp", "zoo:upair", "--size", "3",
                         "--element", "q(0)")
    assert code == 2


def test_supp_superscript_digit_is_no_index(capsys):
    # '²'.isdigit() holds but int('²') refuses it: the parse error stands.
    code, out, err = run(capsys, "supp", "zoo:upair", "--size", "2",
                         "--element", "²")
    assert (code, out) == (2, "")
    assert err == "error: cannot parse element '²'\n"


def test_supp_index_out_of_range(capsys):
    code, out, err = run(capsys, "supp", "zoo:upair", "--size", "1",
                         "--element", "9")
    assert (code, out) == (2, "")
    assert err == "error: index 9 is not an element of upair(1)\n"
    # Resolved before the monomorphicity refusal, which would exit 1.
    code, out, err = run(capsys, "supp", "zoo:twins", "--size", "1",
                         "--element", "1")
    assert (code, out) == (2, "")
    assert err == "error: index 1 is not an element of twins(1)\n"


def test_supp_with_modification(capsys):
    code, out, err = run(capsys, "supp", "zoo:twins", "--modify", "max",
                         "--size", "2", "--element", "c")
    assert code == 0
    assert out == "{}\n"


def test_modify_pinned_output(capsys):
    code, out, err = run(capsys, "modify", "zoo:identity", "--mode", "max")
    assert code == 0
    assert out.splitlines()[0] == "F°∅ = {}"
    assert "F°(∅→1) = ():0->1" in out


def test_modify_twins_max(capsys):
    code, out, err = run(capsys, "modify", "zoo:twins", "--mode", "max")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F°∅ = {c}"
    assert "F°(∅→1) = (0):1->1" in lines


def test_modify_min(capsys):
    code, out, err = run(capsys, "modify", "zoo:const2", "--mode", "min")
    assert code == 0
    assert out.splitlines()[0] == "F∘∅ = {}"
    assert "F∘(∅→1) = ():0->2" in out


def test_modify_requires_mode(capsys):
    code, out, err = run(capsys, "modify", "zoo:twins")
    assert code == 2


def test_modify_max_size_floor(capsys):
    code, out, err = run(capsys, "modify", "zoo:twins", "--mode", "max",
                         "--max-size", "1")
    assert code == 2
    assert "at least 2" in err


def test_modify_beyond_a_tabulated_bound_prints_nothing(tmp_path, capsys):
    # Sizes 0 and 1 are tabulated and print before size 2 is refused,
    # unless every line is built first.
    p = tmp_path / "t1.json"
    p.write_text(json.dumps({
        "max_size": 1, "objects": {"0": [], "1": ["a"]},
        "morphisms": [
            {"dom": 0, "cod": 0, "table": [], "action": {}},
            {"dom": 0, "cod": 1, "table": [], "action": {}},
            {"dom": 1, "cod": 1, "table": [0], "action": {"a": "a"}}]}),
        encoding="utf-8")
    code, out, err = run(capsys, "modify", str(p), "--mode", "min",
                         "--max-size", "2")
    assert code == 2
    assert out == ""
    assert err == "error: t1 is tabulated up to size 1, queried at 2\n"


def test_degree_pinned_output(capsys):
    code, out, err = run(capsys, "degree", "zoo:power3")
    assert code == 0
    assert out == "3 (exact)\n"


def test_degree_lower_bound_on_tabulated(tmp_path, capsys):
    out_file = tmp_path / "upair.json"
    run(capsys, "export", "zoo:upair", "--max-size", "2", "--out",
        str(out_file))
    code, out, err = run(capsys, "degree", str(out_file), "--max-size", "2")
    assert code == 0
    assert out == "2 (lower bound)\n"


def test_degree_refuses_twins(capsys):
    code, out, err = run(capsys, "degree", "zoo:twins")
    assert code == 1
    assert "property failure" in err


def test_eval_output(capsys):
    code, out, err = run(capsys, "eval", "zoo:upair", "--size", "2")
    assert code == 0
    assert out == "upair(2): 3 elements\n  0: p(0,0)\n  1: p(0,1)\n" \
                  "  2: p(1,1)\n"


def test_eval_modified_empty(capsys):
    code, out, err = run(capsys, "eval", "zoo:twins", "--modify", "max",
                         "--size", "0")
    assert code == 0
    assert "1 element" in out and "c" in out


def test_map_output(capsys):
    code, out, err = run(capsys, "map", "zoo:upair", "--fn", "0,2,1",
                         "--dom", "3", "--cod", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "upair((0,2,1):3->3) = (0,2,1,5,4,3):6->6"
    assert "  p(1,2) -> p(1,2)" in lines


def test_map_empty_table(capsys):
    code, out, err = run(capsys, "map", "zoo:twins", "--fn", "", "--dom", "0",
                         "--cod", "1")
    assert code == 0
    assert "(0,0):2->1" in out


def test_map_bad_table(capsys):
    code, out, err = run(capsys, "map", "zoo:upair", "--fn", "0,9", "--dom",
                         "2", "--cod", "2")
    assert code == 2
    code, out, err = run(capsys, "map", "zoo:upair", "--fn", "0,x", "--dom",
                         "2", "--cod", "2")
    assert code == 2
    assert "comma-separated" in err


def test_export_stdout_round_trip(capsys):
    code, out, err = run(capsys, "export", "zoo:const2", "--max-size", "1")
    assert code == 0
    data = json.loads(out)
    assert data["objects"]["0"] == ["a", "b"]


def test_export_of_many_slices_writes_the_same_bytes_to_both_sinks(
        tmp_path, capsys):
    # 888,323 characters, written in 14 slices.
    expected = export_tabulated(zoo_instance("power3"), 4) + "\n"
    assert len(expected) > 13 << 16
    code, out, err = run(capsys, "export", "zoo:power3", "--max-size", "4")
    assert (code, out, err) == (0, expected, "")
    path = tmp_path / "power3.json"
    code, out, err = run(capsys, "export", "zoo:power3", "--max-size", "4",
                         "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# size cap and warning


def test_max_size_cap(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--max-size", "6")
    assert code == 2
    assert "capped at 5" in err


def test_max_size_five_leaves_stderr_empty(capsys):
    code, out, err = run(capsys, "check", "zoo:identity", "--max-size", "5",
                         "--skip", "laws,intersections,supports")
    assert code == 0
    assert err == ""


def test_negative_max_size(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--max-size", "-1")
    assert code == 2


def assert_negative_size_refused(capsys, target):
    for command, extra in (("eval", ()), ("eval", ("--modify", "max")),
                           ("supp", ("--element", "0"))):
        for size in ("-1", "-2"):
            result = run(capsys, command, target, "--size", size, *extra)
            assert result == (
                2, "", f"error: --size must be non-negative, got {size}\n")


def test_negative_size_zoo(capsys):
    assert_negative_size_refused(capsys, "zoo:upair")


def test_negative_size_presentation_file(tmp_path, capsys):
    p = tmp_path / "pairs.ffn"
    p.write_text(SOURCES["upair"], encoding="utf-8")
    assert_negative_size_refused(capsys, str(p))


def test_negative_size_tabulated_file(tmp_path, capsys):
    out_file = tmp_path / "u2.json"
    run(capsys, "export", "zoo:upair", "--max-size", "2", "--out",
        str(out_file))
    assert_negative_size_refused(capsys, str(out_file))


# ---------------------------------------------------------------------------
# argparse plumbing


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "check" in out


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_public_exports():
    assert len(set(finfun.__all__)) == len(finfun.__all__)
    assert [n for n in finfun.__all__ if not hasattr(finfun, n)] == []


def test_every_refusal_type_is_exported():
    from finfun import cli, finset, presentation, tabulated, theory, zoo
    defined = [name for module in (finset, presentation, tabulated, theory,
                                   zoo, cli)
               for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == module.__name__]
    assert defined
    assert [n for n in defined if n not in finfun.__all__] == []


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "zoo:upair", "--frobnicate")
    assert code == 2


def test_unexpected_error_is_an_internal_error(capsys, monkeypatch):
    # The catch-all keeps the exit code within 0-2 for any other
    # exception, a MemoryError from an input too large included.
    def boom(name):
        raise RuntimeError("boom")

    monkeypatch.setattr("finfun.cli.zoo_instance", boom)
    code, out, err = run(capsys, "eval", "zoo:upair", "--size", "1")
    assert code == 2
    assert err == "internal error: RuntimeError: boom\n"


# ---------------------------------------------------------------------------
# A bounded fuzz of the exit-code contract: every command on a malformed
# .ffn or .json input exits 0, 1 or 2, and exit 2 is a named refusal.

# Every number is one digit and a space, so no arity exceeds 3.
DIGITS = ("0 ", "1 ", "2 ", "3 ")
FFN_NAMES = ("a", "b", "p", "q")
FFN_TOKENS = ("shape", "eq", "functor", *FFN_NAMES, "/", "(", ")", ",", "=",
              "#", " ", "\n", "é", "-", *DIGITS)


@st.composite
def ffn_term(draw):
    tokens = [draw(st.sampled_from(FFN_NAMES))]
    for i, var in enumerate(draw(st.lists(st.sampled_from(FFN_NAMES),
                                          max_size=3))):
        tokens += [",", var] if i else ["(", var]
    return tokens + [")"] if len(tokens) > 1 else tokens


@st.composite
def ffn_texts(draw):
    """Up to 25 tokens: a header and declaration lines, then up to two
    tokens inserted, replaced or dropped anywhere."""
    tokens = []
    if draw(st.booleans()):
        tokens += ["functor", " ", draw(st.sampled_from(FFN_NAMES)), "\n"]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            line = ["shape", " ", draw(st.sampled_from(FFN_NAMES)), "/",
                    draw(st.sampled_from(DIGITS)), "\n"]
        else:
            line = ["eq", " ", *draw(ffn_term()), "=", *draw(ffn_term()),
                    "\n"]
        if len(tokens) + len(line) <= 25 - 2:    # room for two inserts
            tokens += line
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("insert", "replace", "drop")))
        if edit != "insert" and i < len(tokens):
            del tokens[i]
        if edit != "drop":
            tokens.insert(i, draw(st.sampled_from(FFN_TOKENS)))
    return "".join(tokens)


JSON_JUNK = (None, True, 0, -1, 1.5, "x", [], {}, [0], {"a": "b"})
UPAIR_2 = json.loads(export_tabulated(zoo_instance("upair"), 2))


def json_slots(doc):
    """The (container, key) pairs a mutation may replace: the top-level
    fields, the object lists, each record's fields and action targets."""
    slots = [(doc, key) for key in doc]
    if isinstance(doc.get("objects"), dict):
        slots += [(doc["objects"], key) for key in doc["objects"]]
    if isinstance(doc.get("morphisms"), list):
        for record in doc["morphisms"]:
            if isinstance(record, dict):
                slots += [(record, key) for key in record]
                if isinstance(record.get("action"), dict):
                    slots += [(record["action"], key)
                              for key in record["action"]]
    return slots


@st.composite
def mutated_tabulations(draw):
    """The size-2 tabulation of upair after one to three mutations,
    each a junk value in one slot or a dropped record."""
    doc = copy.deepcopy(UPAIR_2)
    for _ in range(draw(st.integers(1, 3))):
        records = doc.get("morphisms")
        if isinstance(records, list) and records and draw(st.booleans()):
            del records[draw(st.integers(0, len(records) - 1))]
        else:
            container, key = draw(st.sampled_from(json_slots(doc)))
            container[key] = copy.deepcopy(draw(st.sampled_from(JSON_JUNK)))
    return json.dumps(doc)


def assert_exit_contract(capsys, path, n):
    for argv in (("check", "--max-size", n), ("eval", "--size", n),
                 ("degree", "--modify", "max", "--max-size", n),
                 ("supp", "--size", n, "--element", "0"),
                 ("modify", "--mode", "max", "--max-size", n)):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code in (0, 1, 2), (argv, err)
        assert "internal error:" not in err, (argv, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (argv, err)


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(ffn_texts(), st.sampled_from("0123"))
def test_fuzzed_presentation_keeps_the_exit_contract(tmp_path, capsys,
                                                     text, n):
    path = tmp_path / "fuzz.ffn"
    path.write_text(text, encoding="utf-8")
    assert_exit_contract(capsys, path, n)


@FUZZ
@given(mutated_tabulations(), st.sampled_from("0123"))
def test_fuzzed_tabulation_keeps_the_exit_contract(tmp_path, capsys,
                                                   text, n):
    path = tmp_path / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    assert_exit_contract(capsys, path, n)


# One process's calls share ``main``'s parser: flags, defaults and usage
# errors of one call must not reach the next.
SUCCESSIVE_CALLS = [
    ("check", "zoo:upair", "--max-size", "2", "--json"),
    ("check", "zoo:upair", "--max-size", "2"),
    ("eval", "zoo:twins", "--size", "1", "--modify", "max"),
    ("eval", "zoo:twins", "--size", "1"),
    ("check", "zoo:twins", "--skip", "laws", "--json", "--seed", "3"),
    ("check", "zoo:twins", "--frobnicate"),
    ("check", "zoo:twins", "--modify", "min"),
    ("map", "zoo:upair", "--fn", "1,0", "--dom", "2", "--cod", "2"),
]


def test_successive_calls_read_as_fresh_processes(capsys):
    assert build_parser() is build_parser()
    for argv in SUCCESSIVE_CALLS:
        in_process = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "finfun", *argv],
                              capture_output=True, text=True,
                              encoding="utf-8")
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), \
            argv


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer's generated console script does: import the module,
# call the attribute, exit with its result.  argv[1] is the target.
SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint(name="finfun", value=sys.argv.pop(1),
                    group="console_scripts")
sys.argv[0] = "finfun"
sys.exit(target.load()())
"""


def run_script_target(target, *argv):
    return subprocess.run(
        [sys.executable, "-c", SCRIPT_WRAPPER, target, *argv],
        capture_output=True, text=True, encoding="utf-8")


def test_entry_point_installed():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("finfun") == "finfun.cli:entry"

    proc = run_script_target(scripts["finfun"], "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"finfun {__version__}"
    proc = run_script_target(scripts["finfun"], "check", "zoo:twins",
                             "--skip", "laws,epi,intersections,supports")
    assert proc.returncode == 1, proc.stderr
    assert "():0->1" in proc.stdout

    # The script on PATH exists only where the distribution is installed.
    try:
        dist = importlib.metadata.distribution("finfun")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
    assert installed.get("finfun") == scripts["finfun"]
    script = shutil.which("finfun")
    assert script is not None
    proc = subprocess.run([script, "--version"], capture_output=True,
                          text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"finfun {__version__}"
