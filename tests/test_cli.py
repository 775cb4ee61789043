"""The command line is a thin, byte-stable wrapper over the library."""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagonal, make_f1, make_trivial
from fiskit import analysis, cli
from fiskit.analysis import bounded_emptiness
from fiskit.errors import FormatError
from fiskit.fis import format_fis, parse_fis, recognize, render_scenario
from fiskit.grids import format_grid, grid, parse_grid
from fiskit.pcp import (
    PcpInstance,
    compile_pcp,
    compile_pcp_probe,
    format_pcp,
    probe_witness,
    witness_from_solution,
)
from fiskit.tiles import fis_to_tiles, format_tiles, parse_tiles

ROOT = Path(__file__).resolve().parent.parent
P_TWO = PcpInstance(x=("ab", "b"), y=("a", "bb"))
P_NEG = PcpInstance(x=("ab",), y=("ba",))
P_UNIT = PcpInstance(x=("a",), y=("a",))


@pytest.fixture
def files(tmp_path):
    def put(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    put.dir = tmp_path
    return put


def run(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_recognize_accept_writes_scenario(files, capsys, tmp_path):
    f1_path = files("f1.fis", format_fis(make_f1()))
    grid_path = files("diag3.grid", format_grid(diagonal(3)))
    out = tmp_path / "sc.txt"
    code, text = run(capsys, "recognize", "--fis", f1_path, "--grid", grid_path,
                     "--scenario", str(out))
    assert (code, text) == (0, "ACCEPT\n")
    assert out.read_text() == render_scenario(recognize(make_f1(), diagonal(3)))


def test_recognize_writes_the_scenario_before_the_verdict(files, capsys, tmp_path):
    # an unwritable OUT is an error, and stdout must not say ACCEPT
    f1_path = files("f1.fis", format_fis(make_f1()))
    grid_path = files("diag3.grid", format_grid(diagonal(3)))
    out = tmp_path / "missing" / "sc.txt"
    code = cli.main(["recognize", "--fis", f1_path, "--grid", grid_path, "--scenario", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_consecutive_calls_share_no_state(files, capsys, tmp_path):
    # the parser is built once per process; no call may see another's arguments
    assert cli._parser() is cli._parser()
    f1_path = files("f1.fis", format_fis(make_f1()))
    grid_path = files("diag3.grid", format_grid(diagonal(3)))
    out = tmp_path / "sc.txt"
    argv = ("recognize", "--fis", f1_path, "--grid", grid_path)
    assert run(capsys, *argv, "--scenario", str(out)) == (0, "ACCEPT\n")
    out.unlink()
    assert run(capsys, *argv) == (0, "ACCEPT\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diag3.grid", "f1.fis"]
    assert cli.main(["recognize", "--fis", f1_path, "--max-k", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr() == ("ACCEPT\n", "")


def test_recognize_reject(files, capsys):
    f1_path = files("f1.fis", format_fis(make_f1()))
    grid_path = files("bad.grid", format_grid(grid(["ab", "ba"])))
    code, text = run(capsys, "recognize", "--fis", f1_path, "--grid", grid_path)
    assert (code, text) == (1, "REJECT\n")


def test_enumerate_prints_canonical_order(files, capsys):
    f1_path = files("f1.fis", format_fis(make_f1()))
    code, text = run(capsys, "enumerate", "--fis", f1_path,
                     "--max-rows", "3", "--max-cols", "3")
    assert code == 0
    want = "".join(format_grid(w) + "\n"
                   for w in (diagonal(1), diagonal(2), diagonal(3)))
    assert text == want


@pytest.mark.parametrize("rows", ["0", "-2"])
def test_enumerate_rejects_empty_bounds(files, capsys, rows):
    # every bounded subcommand, not only enumerate: a bound below 1 is an
    # error, never the verdict EMPTY-WITHIN-BOUNDS or INACCESSIBLE-WITHIN-BOUNDS
    f1_path = files("f1.fis", format_fis(make_f1()))
    for command, extra in (("enumerate", []), ("check-empty", []),
                           ("check-access", ["--trans", "1 A a B 2"])):
        for bounds in (["--max-rows", rows, "--max-cols", "3"],
                       ["--max-rows", "3", "--max-cols", rows]):
            code = cli.main([command, "--fis", f1_path, *extra, *bounds])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", "error: bounds must be at least 1x1\n"), command


def test_compile_pcp_both_flavors(files, capsys, tmp_path):
    pcp_path = files("p.pcp", format_pcp(P_TWO))
    out = tmp_path / "s.fis"
    assert cli.main(["compile-pcp", "--pcp", pcp_path, "--out", str(out)]) == 0
    assert parse_fis(out.read_text()) == compile_pcp(P_TWO)
    assert cli.main(["compile-pcp", "--pcp", pcp_path, "--s1",
                     "--out", str(out)]) == 0
    assert parse_fis(out.read_text()) == compile_pcp_probe(P_TWO)


def test_solve_pcp(files, capsys):
    code, text = run(capsys, "solve-pcp", "--pcp", files("p.pcp", format_pcp(P_TWO)),
                     "--max-k", "3")
    assert (code, text) == (0, "1 2\n")
    code, text = run(capsys, "solve-pcp", "--pcp", files("n.pcp", format_pcp(P_NEG)),
                     "--max-k", "4")
    assert (code, text) == (1, "NONE\n")


@pytest.mark.parametrize("max_k", ["0", "-1"])
def test_solve_pcp_rejects_bounds_below_one(files, capsys, max_k):
    code = cli.main(["solve-pcp", "--pcp", files("p.pcp", format_pcp(P_TWO)),
                     "--max-k", max_k])
    assert code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: max_k must be at least 1, not {max_k}\n")


def test_witness_both_flavors(files, capsys):
    pcp_path = files("p.pcp", format_pcp(P_TWO))
    code, text = run(capsys, "witness", "--pcp", pcp_path, "--indices", "1", "2")
    assert (code, text) == (0, format_grid(witness_from_solution(P_TWO, (1, 2))))
    code, text = run(capsys, "witness", "--pcp", pcp_path, "--indices", "1", "2",
                     "--s1")
    assert (code, text) == (0, format_grid(probe_witness(P_TWO, (1, 2))))


def test_check_empty(files, capsys):
    pos = files("s.fis", format_fis(compile_pcp(P_TWO)))
    code, text = run(capsys, "check-empty", "--fis", pos,
                     "--max-rows", "6", "--max-cols", "6")
    found = bounded_emptiness(compile_pcp(P_TWO), 6, 6)
    assert (code, text) == (0, format_grid(found[0]))
    neg = files("n.fis", format_fis(compile_pcp(P_NEG)))
    code, text = run(capsys, "check-empty", "--fis", neg,
                     "--max-rows", "6", "--max-cols", "8")
    assert (code, text) == (1, "EMPTY-WITHIN-BOUNDS\n")


def test_check_access(files, capsys):
    pos = files("s1.fis", format_fis(compile_pcp_probe(P_UNIT)))
    code, text = run(capsys, "check-access", "--fis", pos, "--trans", "s Q $ T q",
                     "--max-rows", "5", "--max-cols", "3")
    assert code == 0
    assert parse_grid(text).cells == (("a", "$"), ("a", "$"),
                                      ("$", "$"), ("$", "$"))
    neg = files("n1.fis", format_fis(compile_pcp_probe(P_NEG)))
    code, text = run(capsys, "check-access", "--fis", neg, "--trans", "s Q $ T q",
                     "--max-rows", "6", "--max-cols", "9")
    assert (code, text) == (1, "INACCESSIBLE-WITHIN-BOUNDS\n")


SINGLE = ("alphabet: a\nstates: s\nclasses: c\ninitial_states: s\ninitial_classes: c\n"
          "final_states: s\nfinal_classes: c\ntrans: s c a c s\n")


@pytest.mark.parametrize("command", [
    ["check-access", "--trans", "s c a c s", "--max-rows", "2", "--max-cols", "2"],
    ["check-empty", "--max-rows", "2", "--max-cols", "2"],
    ["recognize", "--grid", "GRID"],
], ids=["check-access", "check-empty", "recognize"])
def test_a_system_naming_an_undeclared_letter_is_an_error(files, capsys, command):
    # "s c b c s" reads a letter outside the alphabet: the file is malformed
    bad = files("bad.fis", SINGLE + "trans: s c b c s\n")
    argv = [files("a.grid", "a\n") if arg == "GRID" else arg for arg in command]
    assert cli.main([argv[0], "--fis", bad, *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ('error: UndeclaredLetter "b" in Transition(north=\'s\', west=\'c\', '
                       "letter='b', east='c', south='s')\n")


def test_check_access_to_an_undeclared_transition_is_an_error(files, capsys):
    single = files("single.fis", SINGLE)
    code, text = run(capsys, "check-access", "--fis", single, "--trans", "s c a c s",
                     "--max-rows", "2", "--max-cols", "2")
    assert (code, text) == (0, "a\n")
    assert cli.main(["check-access", "--fis", single, "--trans", "s c b c s",
                     "--max-rows", "2", "--max-cols", "2"]) == 2
    assert "is not declared" in capsys.readouterr().err


def test_convert_round_trip(files, capsys, tmp_path):
    f1_path = files("f1.fis", format_fis(make_f1()))
    tiles_out = tmp_path / "f1.tiles"
    assert cli.main(["convert", "--fis", f1_path, "--out", str(tiles_out)]) == 0
    assert parse_tiles(tiles_out.read_text()) == fis_to_tiles(make_f1())
    fis_out = tmp_path / "back.fis"
    assert cli.main(["convert", "--tiles", str(tiles_out), "--out", str(fis_out)]) == 0
    back = parse_fis(fis_out.read_text())
    assert recognize(back, diagonal(2)) is not None
    assert recognize(back, grid(["ab", "ba"])) is None


def test_convert_takes_exactly_one_input(files, capsys, tmp_path):
    # the input names the direction: a system converts to tiles, tiles to a system
    f1_path = files("f1.fis", format_fis(make_f1()))
    tiles_path = files("f1.tiles", "")
    out = tmp_path / "x"
    for argv in (["--fis", f1_path, "--tiles", tiles_path], [],
                 ["--fis", f1_path, "--to", "tiles"]):
        assert cli.main(["convert", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


def test_convert_rejects_a_tile_letter_outside_the_alphabet(files, capsys, tmp_path):
    text = "alphabet: v\ntarget: x\nmap: v x\ntile: # # / # w\n"
    with pytest.raises(FormatError):
        parse_tiles(text)
    path = files("bad.tiles", text)
    assert cli.main(["convert", "--tiles", path, "--out", str(tmp_path / "out.fis")]) == 2
    assert capsys.readouterr().err == "error: tile letter 'w' not in the alphabet\n"
    assert not (tmp_path / "out.fis").exists()


def test_check_structure(files, capsys):
    pcp_path = files("p.pcp", format_pcp(P_TWO))
    w = files("w.grid", format_grid(witness_from_solution(P_TWO, (1, 2))))
    code, text = run(capsys, "check-structure", "--pcp", pcp_path, "--grid", w)
    assert code == 0
    assert "overall: pass" in text and "x-indices: 1 2" in text
    bad = files("bad.grid", format_grid(grid(["ab"])))
    code, text = run(capsys, "check-structure", "--pcp", pcp_path, "--grid", bad)
    assert (code, text) == (1, "REJECT\n")


def test_check_structure_compiles_once(files, capsys, monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return compile_pcp(p)

    monkeypatch.setattr(cli, "compile_pcp", counting)
    monkeypatch.setattr(analysis, "compile_pcp", counting)
    pcp_path = files("p.pcp", format_pcp(P_TWO))
    w = files("w.grid", format_grid(witness_from_solution(P_TWO, (1, 2))))
    code, text = run(capsys, "check-structure", "--pcp", pcp_path, "--grid", w)
    assert code == 0 and "overall: pass" in text
    assert calls == [P_TWO]


def test_errors_exit_two(files, capsys):
    f1_path = files("f1.fis", format_fis(make_f1()))
    g_path = files("g.grid", format_grid(diagonal(1)))
    assert cli.main(["recognize", "--fis", "no-such-file", "--grid", g_path]) == 2
    broken = files("broken.fis", "garbage here\n")
    assert cli.main(["recognize", "--fis", broken, "--grid", g_path]) == 2
    assert cli.main(["check-access", "--fis", f1_path, "--trans", "1 A a",
                     "--max-rows", "1", "--max-cols", "1"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unexpected_exception_exits_two(files, capsys, monkeypatch):
    p_path = files("unit.pcp", format_pcp(P_UNIT))
    argv = ["solve-pcp", "--pcp", p_path, "--max-k", "2"]

    def crash(p, max_k):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "solve_pcp", crash)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"

    def interrupt(p, max_k):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "solve_pcp", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)


def test_enumerate_deep_grids(files, capsys):
    path = files("trivial.fis", format_fis(make_trivial()))
    code, out = run(capsys, "enumerate", "--fis", path,
                    "--max-rows", "1", "--max-cols", "1100")
    assert code == 0
    assert out.count("\n\n") == 1100
    assert out.endswith(" ".join(["a"] * 1100) + "\n\n")


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_outputs_are_byte_stable(files, capsys):
    s_path = files("s.fis", format_fis(compile_pcp(P_TWO)))
    first = run(capsys, "check-empty", "--fis", s_path,
                "--max-rows", "6", "--max-cols", "6")
    second = run(capsys, "check-empty", "--fis", s_path,
                 "--max-rows", "6", "--max-cols", "6")
    assert first == second


def readme_round_trip() -> list[tuple[list[str], str, list[str]]]:
    """README's "A round trip" block: each ``$ fiskit`` line's arguments,
    the file its ``>`` sends stdout to (``""`` for none) and the lines
    README shows it printing."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("A round trip:\n\n```sh\n", 1)[1].split("```", 1)[0]
    steps: list[tuple[list[str], str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ fiskit "):
            argv, _, target = line.removeprefix("$ fiskit ").partition(" > ")
            steps.append((argv.split(), target, []))
        else:
            steps[-1][2].append(line)
    return steps


def test_readme_round_trip_prints_what_readme_shows(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    steps = readme_round_trip()
    assert len(steps) == 5
    for argv, target, want in steps:
        code, text = run(capsys, *(str(ROOT / a) if a.startswith("demos/") else a
                                   for a in argv))
        assert code == 0, argv
        if target:
            (tmp_path / target).write_text(text, encoding="utf-8")
            text = ""
        assert text.splitlines() == want, argv


# tokens of a working system and tile set, and the characters the
# formats and the tile names give a meaning: the border, the marker,
# and the separators and escape of joined names
TOKENS = st.sampled_from(["1", "2", "A", "B", "a", "b", "c", "ab", "#", "$", ",", "/", "\\",
                          "a,b", "a/b", "#a"])


def key_lines(*keys: str):
    """``key: tokens`` lines over ``keys`` and :data:`TOKENS`."""
    return st.tuples(st.sampled_from(keys), st.lists(TOKENS, max_size=5)).map(
        lambda kt: f"{kt[0]}: {' '.join(kt[1])}")


def documents(model: str, lines):
    """The lines of a ``model`` document, up to two of them dropped and
    up to two of ``lines`` added."""
    rows = model.splitlines()
    return st.tuples(st.sets(st.sampled_from(range(len(rows))), max_size=2),
                     st.lists(lines, max_size=2)).map(lambda edit: "\n".join(
        [row for i, row in enumerate(rows) if i not in edit[0]] + edit[1]))


FIS_DOCS = documents(format_fis(make_f1()), key_lines(
    "alphabet", "states", "classes", "initial_states", "initial_classes",
    "final_states", "final_classes", "trans", "tile"))
TILE_DOCS = documents(format_tiles(fis_to_tiles(make_f1())),
                      key_lines("alphabet", "target", "map", "tile", "trans"))
PCP_DOCS = documents(format_pcp(P_TWO), st.one_of(
    key_lines("alphabet"), st.lists(TOKENS, max_size=3).map(" ".join)))
GRID_DOCS = st.lists(st.lists(st.one_of(st.sampled_from("abc"), TOKENS),
                              min_size=1, max_size=3).map(" ".join),
                     min_size=1, max_size=3).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(FIS_DOCS, TILE_DOCS, PCP_DOCS, GRID_DOCS, st.one_of(
    st.sampled_from([" ".join(t) for t in make_f1().transitions]),
    st.lists(TOKENS, min_size=5, max_size=5).map(" ".join)))
def test_documents_never_end_in_an_internal_error(fis, tiles, pcp, grid_text, trans):
    # whatever a document in these formats says, each command reading it
    # answers or names the error, at exit 0, 1 or 2
    with tempfile.TemporaryDirectory() as tmp:
        F, T, P, G = (str(Path(tmp, name)) for name in "FTPG")
        for path, text in ((F, fis), (T, tiles), (P, pcp), (G, grid_text)):
            Path(path).write_text(text + "\n", encoding="utf-8")
        out, bounds = str(Path(tmp, "out")), ["--max-rows", "2", "--max-cols", "2"]
        for argv in (["recognize", "--fis", F, "--grid", G],
                     ["enumerate", "--fis", F, *bounds],
                     ["check-empty", "--fis", F, *bounds],
                     ["check-access", "--fis", F, "--trans", trans, *bounds],
                     ["convert", "--fis", F, "--out", out],
                     ["convert", "--tiles", T, "--out", out],
                     ["compile-pcp", "--pcp", P, "--out", out],
                     ["solve-pcp", "--pcp", P, "--max-k", "2"],
                     ["witness", "--pcp", P, "--indices", "1", "2"],
                     ["check-structure", "--pcp", P, "--grid", G]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2) and "error: internal" not in err.getvalue(), \
                (argv, err.getvalue())
