import argparse
import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vcsp_landscape
from vcsp_landscape import (
    Instance,
    build_chain,
    cli,
    predicted_ascent_length,
    search,
    write_instance,
)
from vcsp_landscape.cli import main

GOLDEN_SHA256 = "a827d58e7036e718e91fc62926f7bbdd7ad6dfa64fe7b5634f3d6fb8034bea93"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def constraint_lines(path):
    with open(path) as fh:
        return [ln for ln in fh if ln.startswith(("u ", "b "))]


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "c33.vcsp"
    code, stdout, _ = run(capsys, "gen", "--n", "3", "--m", "3", "--sign", "-",
                          "--out", str(out))
    assert code == 0
    assert stdout == "vars=18 unaries=18 binaries=20\n"
    assert len(constraint_lines(out)) == 38


def test_numpy_is_never_imported(tmp_path):
    # importing the package, a steepest ascent, `vcsp gen`, enumerate_peaks,
    # `vcsp oracle --peaks`, check_semismooth and `vcsp oracle --semismooth`
    # all leave numpy unloaded
    c, c2 = str(tmp_path / "c.vcsp"), str(tmp_path / "c2.vcsp")
    script = f"""
import sys
import vcsp_landscape as v
from vcsp_landscape.cli import main
v.steepest_ascent(v.build_chain(3, 3, "+"), (0,) * 18)
assert main(["gen", "--n", "3", "--sign", "+", "--out", {c!r}]) == 0
assert v.enumerate_peaks(v.build_chain(1, 1, "+")) == [v.expected_peak(1, 1, "+")]
assert main(["oracle", "--instance", {c!r}, "--peaks"]) == 0
assert "numpy" not in sys.modules, "numpy imported"
assert v.check_semismooth(v.build_chain(1, 1, "+")).semismooth
assert main(["gen", "--n", "2", "--sign", "-", "--out", {c2!r}]) == 0
assert main(["oracle", "--instance", {c2!r}, "--semismooth"]) == 0
assert "numpy" not in sys.modules, "numpy imported"
"""
    src = str(Path(vcsp_landscape.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("vars=18 unaries=18 binaries=20\npeaks=1\npeak ")
    assert proc.stdout.endswith("\nvars=12 unaries=12 binaries=13\nsemismooth=true\n")


def test_gen_single_gadget(tmp_path, capsys):
    out = tmp_path / "c11.vcsp"
    code, stdout, _ = run(capsys, "gen", "--n", "1", "--m", "1", "--sign", "+",
                          "--out", str(out))
    assert code == 0
    assert stdout.startswith("vars=6 ")
    assert len(constraint_lines(out)) == 12


def test_gen_rejects_m_above_n(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "gen", "--n", "2", "--m", "3", "--sign", "-",
                               "--out", str(tmp_path / "x.vcsp"))
    assert code != 0
    assert "RangeError" in stderr
    assert stdout == ""


def test_gen_defaults_m_to_n(tmp_path, capsys):
    code, stdout, _ = run(capsys, "gen", "--n", "2", "--sign", "-",
                          "--out", str(tmp_path / "c22.vcsp"))
    assert code == 0
    assert stdout.startswith("vars=12 ")


def test_gen_writes_decomposition(tmp_path, capsys):
    inst_path = tmp_path / "c.vcsp"
    bags_path = tmp_path / "c.bags"
    code, _, _ = run(capsys, "gen", "--n", "2", "--sign", "-", "--out", str(inst_path),
                     "--decomposition", str(bags_path))
    assert code == 0
    code, stdout, _ = run(capsys, "structure", "--instance", str(inst_path),
                          "--decomposition", str(bags_path))
    assert code == 0
    assert "width=2 valid=true" in stdout
    assert "degree=3" in stdout


def test_eval(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "+"), path)
    code, stdout, _ = run(capsys, "eval", "--instance", str(path), "--assign", "111110")
    assert code == 0
    assert stdout == "fitness=18\n"


def test_ascend_steepest(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "+"), path)
    code, stdout, _ = run(capsys, "ascend", "--instance", str(path), "--start", "000000")
    assert code == 0
    assert stdout == "steps=7 final_fitness=18 peak=111110 ties=0\n"


def test_ascend_two_gadgets(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(5, 2, "+"), path)
    code, stdout, _ = run(capsys, "ascend", "--instance", str(path),
                          "--start", "0" * 12)
    assert code == 0
    assert stdout.startswith("steps=21 ")


def test_ascend_rejects_bad_start(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "+"), path)
    code, _, stderr = run(capsys, "ascend", "--instance", str(path), "--start", "000")
    assert code != 0
    assert "LengthMismatch" in stderr


def test_ascend_writes_trace(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    trace = tmp_path / "t.csv"
    write_instance(build_chain(1, 1, "+"), path)
    code, _, _ = run(capsys, "ascend", "--instance", str(path), "--start", "000000",
                     "--trace", str(trace))
    assert code == 0
    text = trace.read_text()
    assert text.startswith("# method=steepest\n")
    assert "step,var_index,var_label,gain,fitness_after" in text


@pytest.mark.parametrize("method", ["steepest", "random", "first"])
def test_ascend_rejects_negative_max_steps(tmp_path, capsys, method):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(3, 3, "+"), path)
    code, stdout, stderr = run(capsys, "ascend", "--instance", str(path), "--start", "0" * 18,
                               "--method", method, "--max-steps", "-5")
    assert code != 0
    assert "RangeError" in stderr
    assert stdout == ""


def test_steepest_commands_native_match_reference(tmp_path, capsys, monkeypatch):
    # stdout, exit status and trace CSV bytes are the same with the native
    # kernel and with the Python loop
    chain = tmp_path / "c.vcsp"
    write_instance(build_chain(7, 7, "-"), chain)
    tied = tmp_path / "t.vcsp"
    write_instance(Instance(3, 0, [(0, 2), (1, 2), (2, 1)], [(0, 2, -1)]), tied)
    commands = [("verify", "--n", "6"), ("verify", "--n", "7", "--m", "3")]
    ascend = ("ascend", "--instance", str(chain), "--start", "1111100" * 6)
    for extra in ((), ("--max-steps", "300"), ("--max-steps", "0")):
        commands.append(ascend + ("--trace", str(tmp_path / "c.csv")) + extra)
    commands.append(ascend + ("--trials", "3"))
    for tie in ("lowest", "error"):
        commands.append(("ascend", "--instance", str(tied), "--start", "000", "--tie", tie,
                         "--trace", str(tmp_path / "t.csv")))

    def session():
        out = []
        for argv in commands:
            for csv in tmp_path.glob("*.csv"):
                csv.unlink()
            out.append((run(capsys, *argv), sorted((p.name, p.read_bytes())
                                                    for p in tmp_path.glob("*.csv"))))
        return out

    native = session()
    monkeypatch.setattr(search, "_native_kernel", lambda: None)
    assert session() == native
    assert [code for (code, _, _), _ in native] == [0] * 7 + [1]


def test_ascend_random_deterministic(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(2, 2, "-"), path)
    args = ("ascend", "--instance", str(path), "--start", "1" * 12,
            "--method", "random", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("peak=000000000000 ties=0\n")


def test_ascend_trials(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(2, 2, "-"), path)
    args = ("ascend", "--instance", str(path), "--start", "111110000000",
            "--method", "random", "--trials", "20", "--seed", "11")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert out1.startswith("trials=20 method=random mean=")
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_ascend_trials_with_trace_is_a_usage_error(tmp_path, capsys):
    # trials write no trace, so asking for both exits 2 instead of dropping it
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(3, 3, "+"), path)
    trace = tmp_path / "tr.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ascend", "--instance", str(path), "--start", "0" * 18, "--trials", "3",
              "--trace", str(trace)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --trace: not allowed with argument --trials" in out.err
    assert not trace.exists()


@pytest.mark.parametrize("method,plain", [
    ("random", "trials=5 method=random mean=56/5 min=8 max=14\n"),
    ("steepest", "trials=5 method=steepest mean=50 min=50 max=50\n"),
    ("first", "trials=5 method=first mean=6 min=6 max=6\n"),
])
def test_ascend_trials_max_steps(tmp_path, capsys, method, plain):
    # --max-steps applies to every trial; without it the output is as before
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(3, 3, "-"), path)
    args = ("ascend", "--instance", str(path), "--start", "1" * 6 + "0" * 12,
            "--method", method, "--trials", "5", "--seed", "11")
    assert run(capsys, *args) == (0, plain, "")
    code, out, _ = run(capsys, *args, "--max-steps", "2")
    assert code == 0
    assert out.startswith("trials=5 method=") and out.endswith(" max=2\n")
    code, out, err = run(capsys, *args, "--max-steps", "-5")
    assert (code, out) == (1, "")
    assert "RangeError" in err


def test_eval_raw_order(tmp_path, capsys):
    # labels put gadget 1 at the low indices, so display order differs from
    # dense order; the unary sits on dense index 0 = display position 6
    path = tmp_path / "twist.vcsp"
    path.write_text(
        "vcsp 1\nn 12\n"
        + "".join(f"label {i} 1 {i + 1}\n" for i in range(6))
        + "".join(f"label {6 + i} 2 {i + 1}\n" for i in range(6))
        + "u 0 7\n")
    code, out, _ = run(capsys, "eval", "--instance", str(path),
                       "--assign", "000000100000")
    assert code == 0 and out == "fitness=7\n"
    code, out, _ = run(capsys, "eval", "--instance", str(path),
                       "--assign", "100000000000", "--raw-order")
    assert code == 0 and out == "fitness=7\n"


def test_verify_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "n=3 m=3"
    assert lines[-1] == "overall=pass"
    assert "check=ascent[+]-steps expected=49 observed=49 pass=true" in lines
    assert all("pass=true" in ln for ln in lines if ln.startswith("check="))


@pytest.mark.parametrize("max_steps", [5, 0])
def test_verify_reports_failed_checks(capsys, monkeypatch, max_steps):
    # ascents cut short fail the step and end checks (and, with no step at
    # all, the min-gain check), the overall verdict, and the exit status
    steepest = search.steepest_ascent
    monkeypatch.setattr(search, "steepest_ascent",
                        lambda *args, **kw: steepest(*args, **kw, max_steps=max_steps))
    code, stdout, _ = run(capsys, "verify", "--n", "4")
    assert code == 1
    lines = stdout.splitlines()
    assert lines[-1] == "overall=fail"
    failed = [ln for ln in lines if ln.endswith("pass=false")]
    assert failed[:2] == [
        f"check=ascent[+]-steps expected=105 observed={max_steps} pass=false",
        "check=ascent[+]-end expected=111110000000000000000000 observed="
        + ("111001100000000000000000" if max_steps else "0" * 24) + " pass=false",
    ]
    min_gain = "check=ascent[-]-min-gain expected=>=1 observed=None pass=false"
    assert len(failed) == (4 if max_steps else 6)
    assert (min_gain in failed) == (max_steps == 0)
    assert sum("pass=true" in ln for ln in lines) == 16 - len(failed)


def test_verify_rejects_m_above_n(capsys):
    code, _, stderr = run(capsys, "verify", "--n", "1", "--m", "2")
    assert code != 0
    assert "RangeError" in stderr


def test_verify_refuses_more_steps_than_the_cap(capsys, monkeypatch):
    # m = 40 would walk about 1.5e13 steps: verify fails at once, before it
    # builds a chain; m = 28 is the largest m under the cap
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n", "40")
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert err == ("error: TooLargeError: m=40 needs 15393162788850 steepest-ascent steps, "
                   "over the cap of 4294967296\n")
    assert 2 * predicted_ascent_length(28) <= cli.VERIFY_STEP_CAP < 2 * predicted_ascent_length(29)
    assert run(capsys, "verify", "--n", "40", "--m", "29")[0] == 1
    monkeypatch.setattr(cli, "VERIFY_STEP_CAP", 2 * predicted_ascent_length(3))
    assert run(capsys, "verify", "--n", "3")[0] == 0  # exactly at the cap
    code, _, err = run(capsys, "verify", "--n", "4")
    assert code == 1 and "TooLargeError: m=4 needs 210 steepest-ascent steps" in err


def test_verify_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--n", "10")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "0a779edbf361f69e37b4688513995dc741c94297e6a529c841f19a3ce6d7bb64"


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--n", "2")
    _, out2, _ = run(capsys, "verify", "--n", "2")
    assert out1 == out2


def test_oracle_ascent_graph(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "+"), path)
    code, stdout, _ = run(capsys, "oracle", "--instance", str(path),
                          "--ascent-graph", "000000")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "nodes=13 edges=18 sinks=1"
    assert lines[1] == "sink 111110 18"


def test_oracle_peaks(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(2, 2, "-"), path)
    code, stdout, _ = run(capsys, "oracle", "--instance", str(path), "--peaks")
    assert code == 0
    assert stdout == "peaks=1\npeak 000000000000 0\n"


def test_oracle_semismooth(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "-"), path)
    code, stdout, _ = run(capsys, "oracle", "--instance", str(path), "--semismooth")
    assert code == 0
    assert stdout == "semismooth=true\n"


def test_oracle_semismooth_counterexample(tmp_path, capsys):
    path = tmp_path / "pair.vcsp"
    path.write_text("vcsp 1\nn 2\nu 0 1\nu 1 1\nb 0 1 -3\n")
    code, stdout, _ = run(capsys, "oracle", "--instance", str(path), "--semismooth")
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0] == "semismooth=false"
    assert lines[1] == "face ** peaks=2"
    assert set(lines[2:]) == {"face-peak 01 1", "face-peak 10 1"}


def test_oracle_semismooth_too_large(tmp_path, capsys):
    path = tmp_path / "big.vcsp"
    write_instance(build_chain(5, 5, "-"), path)  # 30 variables
    code, _, stderr = run(capsys, "oracle", "--instance", str(path), "--semismooth")
    assert code != 0
    assert "TooLarge" in stderr
    # above 24 variables a raised cap is refused too, before any table is built
    path.write_text("vcsp 1\nn 25\n")
    code, stdout, stderr = run(capsys, "oracle", "--instance", str(path), "--semismooth",
                               "--cap", "25")
    assert (code, stdout) == (1, "")
    assert stderr == ("error: TooLargeError: 25 variables exceeds 24, the most that "
                      "check_semismooth takes at any cap\n")


def test_structure_report(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(3, 3, "-"), path)
    code, stdout, _ = run(capsys, "structure", "--instance", str(path))
    assert code == 0
    assert stdout == "vertices=18 edges=20 degree=3 cycle=true\n"


def test_structure_rejects_bad_decomposition(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    bags = tmp_path / "bad.bags"
    write_instance(build_chain(2, 2, "-"), path)
    bags.write_text("0 1 2\n")  # misses most vertices
    code, stdout, stderr = run(capsys, "structure", "--instance", str(path),
                               "--decomposition", str(bags))
    assert code == 1
    assert "valid=false" in stdout
    assert "decomposition invalid" in stderr


def test_structure_writes_dot(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    dot = tmp_path / "g.dot"
    write_instance(build_chain(1, 1, "-"), path)
    code, _, _ = run(capsys, "structure", "--instance", str(path), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph constraint_graph {")


EMPTY_PATH = "error: [Errno 2] No such file or directory: ''\n"


def test_ascend_empty_trace_path_is_an_error(tmp_path, capsys):
    path = tmp_path / "g.vcsp"
    write_instance(build_chain(1, 1, "+"), path)
    assert run(capsys, "ascend", "--instance", str(path), "--start", "000000",
               "--trace", "") == (1, "", EMPTY_PATH)


def test_gen_empty_decomposition_path_is_an_error(tmp_path, capsys):
    assert run(capsys, "gen", "--n", "2", "--sign", "-", "--out", str(tmp_path / "c.vcsp"),
               "--decomposition", "") == (1, "", EMPTY_PATH)


@pytest.mark.parametrize("bad", ["out", "decomposition"])
def test_gen_that_cannot_open_an_output_writes_nothing(tmp_path, capsys, bad):
    # either output in a missing directory: exit 1, and neither file is made
    paths = {"out": tmp_path / "c2x.vcsp", "decomposition": tmp_path / "c2x.bags"}
    paths[bad] = tmp_path / "nodir" / paths[bad].name
    code, stdout, stderr = run(capsys, "gen", "--n", "2", "--sign", "-",
                               "--out", str(paths["out"]),
                               "--decomposition", str(paths["decomposition"]))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: [Errno 2] No such file or directory: '{paths[bad]}'\n"
    assert list(tmp_path.iterdir()) == []


def test_structure_empty_decomposition_path_is_an_error(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(2, 2, "-"), path)
    assert run(capsys, "structure", "--instance", str(path),
               "--decomposition", "") == (1, "", EMPTY_PATH)


def test_structure_empty_dot_path_is_an_error(tmp_path, capsys):
    path = tmp_path / "c.vcsp"
    write_instance(build_chain(2, 2, "-"), path)
    assert run(capsys, "structure", "--instance", str(path), "--dot", "") == \
        (1, "vertices=12 edges=13 degree=3 cycle=true\n", EMPTY_PATH)


def test_missing_instance_file(capsys):
    code, _, stderr = run(capsys, "eval", "--instance", "/nonexistent.vcsp",
                          "--assign", "0")
    assert code == 1
    assert "error" in stderr


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2"])  # missing required --sign/--out
    assert exc.value.code == 2


def test_gen_weights_past_the_digit_limit_fail(tmp_path, capsys, digit_limit_640):
    # chain(2200, 2200, '+') builds, but its top weights have about 667
    # digits, past the lowered limit of 640: a VcspError, and no file
    out = tmp_path / "big.vcsp"
    assert run(capsys, "gen", "--n", "2200", "--sign", "+", "--out", str(out)) == \
        (1, "", "error: TooLargeError: a weight has more than 640 digits, the limit for "
         "integer string conversion (sys.set_int_max_str_digits)\n")
    assert not out.exists()


def test_gen_always_validates(tmp_path, capsys):
    # the --no-validate switch is gone: gen always checks the weight schedule
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--sign", "+", "--out", str(tmp_path / "x.vcsp"),
              "--no-validate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-validate" in capsys.readouterr().err
    assert not (tmp_path / "x.vcsp").exists()


def golden_commands(tmp_path) -> list:
    """The argv of each command of the golden session, in order."""
    c3, c2, bags = (str(tmp_path / f) for f in ("c3.vcsp", "c2.vcsp", "c3.bags"))
    twist = tmp_path / "twist.vcsp"
    twist.write_text("vcsp 1\nn 12\n"
                     + "".join(f"label {i} 1 {i + 1}\n" for i in range(6))
                     + "".join(f"label {6 + i} 2 {i + 1}\n" for i in range(6))
                     + "u 0 7\n" + "".join(f"u {i} {i % 3 - 3}\n" for i in range(1, 12))
                     + "b 0 7 -9\nb 6 11 5\nb 1 6 4\n")
    return [
        ("gen", "--n", "3", "--sign", "+", "--out", c3, "--decomposition", bags),
        ("gen", "--n", "2", "--sign", "-", "--out", c2),
        ("structure", "--instance", c3, "--decomposition", bags),
        ("structure", "--instance", c2),
        ("eval", "--instance", c3, "--assign", "101" * 6),
        ("eval", "--instance", str(twist), "--assign", "100000010001", "--raw-order"),
        ("ascend", "--instance", c3, "--start", "0" * 18),
        ("ascend", "--instance", c3, "--start", "0" * 18, "--max-steps", "9"),
        ("ascend", "--instance", c3, "--start", "1" * 18, "--method", "random", "--seed", "4"),
        ("ascend", "--instance", c3, "--start", "1" * 18, "--method", "first"),
        ("ascend", "--instance", str(twist), "--start", "111111111111", "--raw-order"),
        ("ascend", "--instance", c3, "--start", "1" * 18, "--method", "random",
         "--trials", "7", "--seed", "3"),
        ("ascend", "--instance", c3, "--start", "0" * 18, "--trials", "2"),
        ("ascend", "--instance", c3, "--start", "0" * 18, "--method", "first", "--trials", "2"),
        ("ascend", "--instance", c3, "--start", "000"),
        ("verify", "--n", "6"),
        ("verify", "--n", "4", "--m", "2"),
        ("oracle", "--instance", c2, "--peaks"),
        ("oracle", "--instance", str(twist), "--peaks", "--raw-order"),
        ("oracle", "--instance", c2, "--ascent-graph", "111110000000"),
        ("oracle", "--instance", str(twist), "--ascent-graph", "0" * 12, "--raw-order"),
        ("oracle", "--instance", c2, "--semismooth"),
        ("oracle", "--instance", str(twist), "--semismooth", "--raw-order"),
    ]


def golden_session(tmp_path, capsys) -> str:
    """A fixed `vcsp` command set; stdout and exit code of each, in order."""
    out = []
    for argv in golden_commands(tmp_path):
        code, stdout, _ = run(capsys, *argv)
        out.append(f"$ {' '.join(a.replace(str(tmp_path), '.') for a in argv)}\n"
                   f"{stdout}exit={code}\n")
    return "".join(out)


def test_golden_cli_session(tmp_path, capsys):
    # pins the stdout and exit codes of a fixed command set, byte for byte
    text = golden_session(tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256, text


class Parsed(Exception):
    """Raised in place of returning from parse_args, so nothing runs."""


def parse_outcome(capsys, call):
    """(exit status, or vars() of the namespace; stdout; stderr) of one parse."""
    try:
        call()
        raise AssertionError("parse_args was not called")
    except SystemExit as e:
        result = e.code
    except Parsed as e:
        result = vars(e.args[0])
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.fixture
def parse_only(monkeypatch):
    # every parse_args call, main's and the full parser's, stops at its result
    parse_args = argparse.ArgumentParser.parse_args

    def stop(self, args=None, namespace=None):
        raise Parsed(parse_args(self, args, namespace))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", stop)
    monkeypatch.setenv("COLUMNS", "80")


USAGE_PATHS = [
    ("-h",), ("--help",), (), ("bogus",), ("--bogus", "verify"),
    *((name, "-h") for name in ("gen", "eval", "ascend", "verify", "oracle", "structure")),
    ("gen", "--n", "2"), ("eval", "--instance", "i"), ("ascend", "--instance", "i"),
    ("verify",), ("oracle", "--peaks"), ("structure",),
    ("verify", "--n", "3", "--bogus"), ("verify", "--n", "3", "extra"),
    ("gen", "--n", "2", "--sign", "x", "--out", "o"), ("verify", "--n", "three"),
    ("ascend", "--instance", "i", "--start", "0", "--trace", "t", "--trials", "2"),
    ("oracle", "--instance", "i"), ("oracle", "--instance", "i", "--peaks", "--semismooth"),
]


def test_main_usage_paths_match_the_full_parser(capsys, monkeypatch, parse_only):
    # help and usage errors print the same bytes and exit the same way
    # whichever parser main builds, given argv or reading sys.argv
    for argv in USAGE_PATHS:
        full = parse_outcome(capsys, lambda: cli.build_parser().parse_args(list(argv)))
        assert full[0] in (0, 2), argv
        assert parse_outcome(capsys, lambda: main(list(argv))) == full, argv
        monkeypatch.setattr(sys, "argv", ["vcsp", *argv])
        assert parse_outcome(capsys, main) == full, argv
    # both parsers' usage names every command; a bare `vcsp` names the missing one
    code, _, err = parse_outcome(capsys, lambda: main(["verify", "--n", "3", "--bogus"]))
    assert (code, err.splitlines()[0]) == \
        (2, "usage: vcsp [-h] {gen,eval,ascend,verify,oracle,structure} ...")
    assert parse_outcome(capsys, lambda: main([]))[2].endswith(
        "error: the following arguments are required: command\n")


def test_main_parses_golden_commands_as_the_full_parser(tmp_path, capsys, monkeypatch,
                                                        parse_only):
    for argv in golden_commands(tmp_path):
        full = parse_outcome(capsys, lambda: cli.build_parser().parse_args(list(argv)))
        assert isinstance(full[0], dict) and full[0]["command"] == argv[0]
        assert parse_outcome(capsys, lambda: main(list(argv))) == full, argv
        monkeypatch.setattr(sys, "argv", ["vcsp", *argv])
        assert parse_outcome(capsys, main) == full, argv


def test_ascend_trials_tie_policy(tmp_path, capsys):
    # --tie applies to steepest trials; random trials take no tie policy
    path = tmp_path / "t.vcsp"
    write_instance(Instance(3, 0, [(0, 2), (1, 2), (2, 1)], [(0, 2, -1)]), path)
    args = ("ascend", "--instance", str(path), "--start", "000", "--trials", "2")
    assert run(capsys, *args) == (0, "trials=2 method=steepest mean=2 min=2 max=2\n", "")
    code, out, err = run(capsys, *args, "--tie", "error")
    assert (code, out) == (1, "")
    assert err == "error: TieEncounteredError: step 1: 2 moves share the maximal gain 2\n"
    assert run(capsys, *args[:-2], "--tie", "error") == (code, out, err)
    rand = args + ("--method", "random", "--seed", "3")
    plain = run(capsys, *rand)
    assert plain[0] == 0 and plain[1].startswith("trials=2 method=random ")
    assert run(capsys, *rand, "--tie", "error") == plain
