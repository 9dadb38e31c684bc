"""Command-line surface: outputs, byte stability, exit codes."""

import json

import pytest

from qtspecials.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_binom_value(capsys):
    code, out = run_cli(capsys, "binom", "--lambda", "2,1", "--mu", "1,0",
                        "--q", "1/2", "--t", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "9/2"
    assert payload["lambda"] == "2,1"


def test_negative_literal_after_an_equals_sign(capsys):
    """--q=-3/4 passes a negative q; after a space argparse reads -3/4 as an
    option (README, Command line)."""
    from qtspecials.binomial import qt_binomial
    from qtspecials.scalars import Rational, format_rational
    from qtspecials.wcore import QtPoint

    code, out = run_cli(capsys, "binom", "--lambda", "3,1", "--mu", "2,1",
                        "--q=-3/4", "--t", "7/3")
    assert code == 0
    mode = QtPoint(Rational(-3, 4), Rational(7, 3)).mode
    assert json.loads(out)["value"] == format_rational(qt_binomial((3, 1), (2, 1), mode))


def test_binom_alpha_limit(capsys):
    code, out = run_cli(capsys, "binom", "--lambda", "4,0", "--mu", "2,0",
                        "--alpha", "1")
    assert code == 0
    assert json.loads(out)["value"] == "6/1"


def test_catalan_alpha_example(capsys):
    code, out = run_cli(capsys, "catalan", "--lambda", "1,1", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["values"]["1,1"] == "2/1"


def test_sequence_table_csv(capsys):
    code, out = run_cli(capsys, "fibonacci", "--bound", "2,1",
                        "--q", "1/2", "--t", "1/3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,value"
    assert all("," in line for line in lines[1:])
    # cells are p/q strings, never decimals
    assert all("." not in line for line in lines)


def test_stirling_table_json(capsys):
    code, out = run_cli(capsys, "stirling", "--kind", "first", "--bound", "2,1",
                        "--q", "1/2", "--t", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "first" and payload["n"] == 2
    assert payload["entries"]["2,1"]["2,1"] == "1/1"
    assert set(payload["entries"]["1,0"]) == {"0,0", "1,0"}


def test_verify_small_bound(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--bound", "2,1",
                        "--points", "2", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    exact = {c["residual"] for c in payload["checks"] if not c["approximate"]}
    assert exact == {"0/1"}


def test_verify_rejects_mismatched_n(capsys):
    code, out = run_cli(capsys, "verify", "--n", "3", "--bound", "2,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_byte_stability(capsys):
    args = ("verify", "--bound", "2,0", "--points", "2", "--seed", "5")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    args = ("sample", "--kind", "g", "--lambda", "2,1", "--z", "1/5",
            "--q", "1/2", "--t", "1/3", "--count", "20", "--seed", "3")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_degenerate_point_error_record(capsys):
    code, out = run_cli(capsys, "binom", "--lambda", "2,1", "--mu", "1,0",
                        "--q", "0", "--t", "1/3")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "DegenerateParameters"


def test_parse_error_record(capsys):
    code, out = run_cli(capsys, "binom", "--lambda", "2,1", "--mu", "1,0",
                        "--q", "1/2", "--t", "x")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "InvalidLiteral",
                                         "message": "not a rational literal: 'x'"}}
    code, out = run_cli(capsys, "binom", "--lambda", "2,1", "--mu", "1,0",
                        "--q", "1/2", "--t", "1/0")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "DivisionByZero",
                                         "message": "zero denominator in literal '1/0'"}}


def test_density_command(capsys):
    code, out = run_cli(capsys, "density", "--kind", "g", "--lambda", "2,1",
                        "--z", "1/5", "--q", "1/2", "--t", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "1/1"
    assert set(payload["masses"]) == {"0,0", "1,0", "1,1", "2,0", "2,1"}


def test_poisson_density_command(capsys):
    code, out = run_cli(capsys, "density", "--kind", "poisson", "--n", "2",
                        "--z", "1/20", "--q", "1/2", "--t", "1/3",
                        "--part-cap", "6", "--trunc", "30")
    assert code == 0
    payload = json.loads(out)
    assert "tail_bound" in payload


def test_sample_jsonl(capsys):
    code, out = run_cli(capsys, "sample", "--kind", "g", "--lambda", "2,1",
                        "--z", "1/5", "--q", "1/2", "--t", "1/3",
                        "--count", "10", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert json.loads(lines[-1])["summary"]["count"] == 10


def test_poisson_density_refuses_a_lambda(capsys):
    for command in (("density",), ("sample", "--count", "3")):
        code, out = run_cli(capsys, *command, "--kind", "poisson", "--lambda", "5",
                            "--n", "1", "--z", "1/20", "--q", "1/2", "--t", "1/3")
        assert code == 1
        assert json.loads(out) == {"error": {
            "type": "InvalidArgument", "message": "poisson density has no lam parameter"}}


def test_sample_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sample", "--kind", "g", "--lambda", "2,1", "--z", "1/5", "--q", "1/2",
              "--t", "1/3", "--count", "3", "--format", "csv"])
    assert info.value.code == 2  # an argparse usage error
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_exp_command(capsys):
    code, out = run_cli(capsys, "exp", "--z", "1/10", "--q", "1/2", "--t", "1/3",
                        "--n", "2", "--part-cap", "10", "--trunc", "25")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["upper"]) == {"product", "series", "difference"}
    assert "reciprocal_residual" in payload


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QTSPECIALS_SEED", "99")
    _, with_env = run_cli(capsys, "sample", "--kind", "g", "--lambda", "1,1",
                          "--z", "1/5", "--q", "1/2", "--t", "1/3",
                          "--count", "5")
    monkeypatch.delenv("QTSPECIALS_SEED")
    _, explicit = run_cli(capsys, "sample", "--kind", "g", "--lambda", "1,1",
                          "--z", "1/5", "--q", "1/2", "--t", "1/3",
                          "--count", "5", "--seed", "99")
    assert with_env == explicit


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, "binom", "--lambda", "1,0", "--mu", "1,0",
                        "--q", "1/2", "--t", "1/3", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == "1/1"


@pytest.mark.parametrize("command", [
    ("density", "--kind", "g"), ("sample", "--kind", "g", "--count", "3")],
    ids=["density", "sample"])
@pytest.mark.parametrize("where,error", [
    ((), "IsADirectoryError"), (("missing", "x.json"), "FileNotFoundError")],
    ids=["directory", "missing-directory"])
def test_out_path_that_cannot_be_opened_is_an_input_error(tmp_path, capsys, command,
                                                          where, error):
    target = tmp_path.joinpath(*where)
    code, out = run_cli(capsys, *command, "--lambda", "2,1", "--z", "1/5",
                        "--q", "1/2", "--t", "1/3", "--out", str(target))
    record = json.loads(out)["error"]
    assert code == 1 and "internal" not in record
    assert record["type"] == error and str(target) in record["message"]
    assert capsys.readouterr().err == ""  # no traceback


@pytest.mark.parametrize("where", [("--q", "1/2", "--t", "1/3"), ("--alpha", "1")],
                         ids=["point", "alpha"])
def test_catalan_table_lists_undefined_entries(capsys, where):
    code, out = run_cli(capsys, "catalan", "--bound", "2,2", *where)
    assert code == 0
    payload = json.loads(out)
    below = {"0,0", "1,0", "1,1", "2,0", "2,1", "2,2"}
    # the bracket of lam + e_1 has the factor 1 - q^0 t^0 when the last part is 0
    assert set(payload["undefined"]) == {lam for lam in below if lam.endswith(",0")}
    assert set(payload["values"]) == below - set(payload["undefined"])
    for lam, value in payload["values"].items():
        code, single = run_cli(capsys, "catalan", "--lambda", lam, *where)
        assert code == 0
        assert json.loads(single)["values"] == {lam: value}


def test_catalan_single_undefined_entry_is_an_error(capsys):
    code, out = run_cli(capsys, "catalan", "--lambda", "1,0", "--q", "1/2", "--t", "1/3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateParameters"
    code, out = run_cli(capsys, "catalan", "--bound", "2,2", "--q", "1", "--t", "1/3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateParameters"


VALUE_COMMANDS = [
    ("binom", "--lambda", "2,1", "--mu", "1,0"),
    ("stirling", "--kind", "first", "--bound", "2"),
    ("bernoulli", "--bound", "2"),
    ("bell", "--bound", "2"),
    ("catalan", "--lambda", "2"),
    ("fibonacci", "--bound", "2"),
]


@pytest.mark.parametrize("argv", VALUE_COMMANDS, ids=[a[0] for a in VALUE_COMMANDS])
@pytest.mark.parametrize("point", [("--q", "1/2", "--t", "1/3"), ("--q", "1/2"), ("--t", "1/3")],
                         ids=["q-and-t", "q", "t"])
def test_alpha_excludes_point_on_every_value_command(capsys, argv, point):
    code, out = run_cli(capsys, *argv, "--alpha", "1", *point)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError",
                                         "message": "--alpha excludes --q/--t"}}


@pytest.mark.parametrize("argv", [("bell", "--bound", "1,1", "--alpha", "2"),
                                  ("stirling", "--kind", "first", "--bound", "1,1",
                                   "--alpha", "1")],
                         ids=["bell", "stirling"])
def test_stirling_alpha_limits_need_a_single_part(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedRegime"


def test_stirling_alpha_one_gives_classical_second_kind(capsys):
    code, out = run_cli(capsys, "stirling", "--kind", "second", "--bound", "4",
                        "--alpha", "1")
    assert code == 0
    # S(m, k) = S(m-1, k-1) + k S(m-1, k), S(0, 0) = 1
    s2 = {(0, 0): 1}
    for m in range(1, 5):
        for k in range(m + 1):
            s2[(m, k)] = s2.get((m - 1, k - 1), 0) + k * s2.get((m - 1, k), 0)
    expect = {str(m): {str(k): f"{s2[(m, k)]}/1" for k in range(m + 1)}
              for m in range(5)}
    assert json.loads(out)["entries"] == expect


def test_binom_length_mismatch_is_an_input_error(capsys):
    code, out = run_cli(capsys, "binom", "--lambda", "2,1", "--mu", "1",
                        "--q", "1/2", "--t", "1/3")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError",
                                         "message": "lam and mu must have the same length"}}


@pytest.mark.parametrize("argv,message", [
    pytest.param(("binom", "--lambda", "2", "--mu", "1"), "--q and --t are required here",
                 id="binom-point"),
    pytest.param(("density", "--kind", "poisson", "--z", "1/20", "--q", "1/2", "--t", "1/3"),
                 "--n is required for the poisson density", id="density-poisson-n"),
    pytest.param(("density", "--kind", "g", "--z", "1/5", "--q", "1/2", "--t", "1/3"),
                 "--lambda is required for g and f", id="density-g-lambda"),
    pytest.param(("sample", "--kind", "f", "--z", "1/5", "--q", "1/2", "--t", "1/3",
                  "--count", "3"), "--lambda is required for g and f", id="sample-f-lambda"),
])
def test_missing_option_is_an_input_error(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}



@pytest.mark.parametrize("mu,message", [
    ("1,x", "not a partition literal: '1,x'"),
    ("0,1", "parts not weakly decreasing: (0, 1)"),
    ("2,-1", "negative part in partition: (2, -1)"),
])
def test_binom_mu_that_is_not_a_partition_is_an_input_error(capsys, mu, message):
    code, out = run_cli(capsys, "binom", "--lambda", "3,1", "--mu", mu,
                        "--q", "2/7", "--t", "5/11")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NotAPartition", "message": message}}

def _internal_record(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" in captured.err
    return json.loads(captured.out)


def test_library_fault_is_an_internal_error(capsys, monkeypatch):
    import qtspecials.binomial

    def broken(*args):
        raise TypeError("broken on purpose")

    monkeypatch.setattr(qtspecials.binomial, "qt_binomial", broken)
    record = _internal_record(capsys, "binom", "--lambda", "2,1", "--mu", "1,0",
                              "--q", "1/2", "--t", "1/3")
    assert record == {"error": {"type": "TypeError", "message": "broken on purpose",
                                "internal": True}}


def test_div_root_fault_is_an_internal_error(capsys, monkeypatch):
    from qtspecials import scalars

    divide = scalars._div_root

    def once_too_often(ints, root, times=None):
        # every polynomial is divided once more than it vanishes at the root
        if times is None:
            times = divide(ints, root)[0] + 1
        return divide(ints, root, times)

    monkeypatch.setattr(scalars, "_div_root", once_too_often)
    record = _internal_record(capsys, "catalan", "--lambda", "2", "--alpha", "1")
    assert record == {"error": {"type": "ArithmeticError",
                                "message": "polynomial does not vanish at q = 1",
                                "internal": True}}


@pytest.mark.parametrize("argv", [
    ("binom", "--lambda", "x", "--mu", "1", "--q", "1/2", "--t", "1/3"),
    ("stirling", "--kind", "first", "--bound", "2,,1", "--q", "1/2", "--t", "1/3"),
    ("catalan", "--bound", "a", "--alpha", "1"),
    ("verify", "--bound", "2,x"),
    ("density", "--kind", "g", "--lambda", "1,q", "--z", "1/5", "--q", "1/2", "--t", "1/3"),
], ids=lambda argv: argv[0])
def test_malformed_partition_literal_is_an_input_error(capsys, argv):
    literal = argv[argv.index("--lambda" if "--lambda" in argv else "--bound") + 1]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NotAPartition",
                                         "message": f"not a partition literal: {literal!r}"}}


PT = ("--z", "1/5", "--q", "1/2", "--t", "1/3")
POISSON = ("--kind", "poisson", "--n", "2", *PT)
G = ("--kind", "g", "--lambda", "2,1", *PT)


SIZE_CASES = [  # (argv, the flag out of range, its floor)
    (("density", "--kind", "poisson", "--n", "0", *PT), "--n", 1),
    (("density", *POISSON, "--part-cap", "-1"), "--part-cap", 0),
    (("density", *G, "--trunc", "-1"), "--trunc", 0),
    (("sample", "--kind", "poisson", "--n", "0", *PT, "--count", "3"), "--n", 1),
    (("sample", *G, "--part-cap", "-1", "--count", "3"), "--part-cap", 0),
    (("sample", *POISSON, "--trunc", "-1", "--count", "3"), "--trunc", 0),
    (("sample", *G, "--count", "-1"), "--count", 0),
    (("exp", "--n", "0", *PT), "--n", 1),
    (("exp", "--n", "2", *PT, "--part-cap", "-3"), "--part-cap", 0),
    (("exp", "--n", "2", *PT, "--trunc", "-2"), "--trunc", 0),
    (("verify", "--bound", "2,1", "--points", "0"), "--points", 1),
]


@pytest.mark.parametrize("argv,flag,least", [
    pytest.param(*case, id=f"{case[0][0]}{case[1]}") for case in SIZE_CASES])
def test_size_below_its_floor_is_an_input_error(capsys, argv, flag, least):
    value = argv[argv.index(flag) + 1]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "ValueError", "message": f"{flag} must be at least {least}, got {value}"}}


def test_importing_the_cli_leaves_the_command_modules_unloaded():
    """Every command pays for the import of the CLI; the identity suite, the
    densities and the special numbers load only in the commands that use
    them.  Checked in a fresh interpreter, where nothing is loaded yet."""
    import os
    import subprocess
    import sys

    import qtspecials

    script = (
        "import sys\n"
        "import qtspecials.cli\n"
        "print(sorted(m for m in sys.modules if m in ('qtspecials.identities',"
        " 'qtspecials.distributions', 'qtspecials.specials')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtspecials.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_the_library_imports_no_dataclasses():
    """dataclasses (with inspect behind it) costs every CLI command several
    milliseconds of start-up; no module of the package needs it."""
    import os
    import subprocess
    import sys

    import qtspecials

    script = (
        "import sys\n"
        "import qtspecials.cli, qtspecials.identities, qtspecials.specials, "
        "qtspecials.distributions\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtspecials.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_the_cli_uses_no_private_name_of_the_library():
    """cli.py imports no `_`-prefixed name from the package and reads none
    off a package module it imported (`specials._name`, or getattr with such
    a literal)."""
    import ast
    import pathlib

    import qtspecials.cli

    tree = ast.parse(pathlib.Path(qtspecials.cli.__file__).read_text())
    modules, offenders = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("qtspecials")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{node.lineno}: imports {alias.name}")
                if node.module is None or node.module == "qtspecials":  # a module itself
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.startswith("qtspecials")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_"):
            offenders.append(f"{node.lineno}: reads {node.value.id}.{node.attr}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" \
                and isinstance(node.args[1], ast.Constant) \
                and str(node.args[1].value).startswith("_"):
            offenders.append(f"{node.lineno}: getattr of {node.args[1].value}")
    assert "specials" in modules
    assert not offenders, "\n".join(offenders)
