"""The command line is a thin, byte-stable wrapper over the library."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import diagonal, make_f1, make_trivial
from fiskit import analysis, cli
from fiskit.analysis import SearchBounds, bounded_emptiness
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
from fiskit.tiles import fis_to_tiles, parse_tiles

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
    f1_path = files("f1.fis", format_fis(make_f1()))
    code = cli.main(["enumerate", "--fis", f1_path,
                     "--max-rows", rows, "--max-cols", "3"])
    assert code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: bounds must be at least 1x1\n")


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
    found = bounded_emptiness(compile_pcp(P_TWO), SearchBounds(6, 6))
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


def test_check_access_to_a_transition_that_never_fires(files, capsys):
    # "s c b c s" is declared but reads a letter outside the alphabet
    dead = files("dead.fis", "alphabet: a\nstates: s\nclasses: c\n"
                 "initial_states: s\ninitial_classes: c\nfinal_states: s\n"
                 "final_classes: c\ntrans: s c a c s\ntrans: s c b c s\n")
    code, text = run(capsys, "check-access", "--fis", dead, "--trans", "s c b c s",
                     "--max-rows", "2", "--max-cols", "2")
    assert (code, text) == (1, "INACCESSIBLE-WITHIN-BOUNDS\n")
    code, text = run(capsys, "check-access", "--fis", dead, "--trans", "s c a c s",
                     "--max-rows", "2", "--max-cols", "2")
    assert (code, text) == (0, "a\n")
    assert cli.main(["check-access", "--fis", dead, "--trans", "s c x c s",
                     "--max-rows", "2", "--max-cols", "2"]) == 2
    assert "is not declared" in capsys.readouterr().err


def test_convert_round_trip(files, capsys, tmp_path):
    f1_path = files("f1.fis", format_fis(make_f1()))
    tiles_out = tmp_path / "f1.tiles"
    assert cli.main(["convert", "--fis", f1_path, "--to", "tiles",
                     "--out", str(tiles_out)]) == 0
    assert parse_tiles(tiles_out.read_text()) == fis_to_tiles(make_f1())
    fis_out = tmp_path / "back.fis"
    assert cli.main(["convert", "--tiles", str(tiles_out), "--to", "fis",
                     "--out", str(fis_out)]) == 0
    back = parse_fis(fis_out.read_text())
    assert recognize(back, diagonal(2)) is not None
    assert recognize(back, grid(["ab", "ba"])) is None


def test_convert_flag_mismatch_is_an_error(files, capsys, tmp_path):
    f1_path = files("f1.fis", format_fis(make_f1()))
    out = str(tmp_path / "x")
    assert cli.main(["convert", "--fis", f1_path, "--to", "fis",
                     "--out", out]) == 2
    assert cli.main(["convert", "--to", "tiles", "--out", out]) == 2


def test_convert_rejects_a_tile_letter_outside_the_alphabet(files, capsys, tmp_path):
    text = "alphabet: v\ntarget: x\nmap: v x\ntile: # # / # w\n"
    with pytest.raises(FormatError):
        parse_tiles(text)
    path = files("bad.tiles", text)
    assert cli.main(["convert", "--tiles", path, "--to", "fis",
                     "--out", str(tmp_path / "out.fis")]) == 2
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
