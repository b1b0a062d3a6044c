"""The scripts under ``tools/`` that changes to the library are measured with."""

import importlib.util
import json
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


class A:
    """Class docstring."""

    x = 1
    "a later string statement is code"

    def f(self):
        """Function
        docstring."""
        # a comment line
        return math.pi


async def g():
    """Async docstring."""

    return 1
'''


def test_code_lines_counts_neither_docstrings_nor_comments_nor_blanks(tmp_path, capsys):
    # import, class, x = 1, the later string, def, return, async def, return
    code_lines = _tool("code_lines")
    assert code_lines.code_lines(_SOURCE) == 8
    path = tmp_path / "sample.py"
    path.write_text(_SOURCE, encoding="utf-8")
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["8", str(path), "8", str(path), "16", "total"]


def test_exact_points_prints_one_parsable_line_per_point():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "exact_points.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 32
    exact, small_gap = lines[:19], lines[19:]
    labels = []
    for line in exact:
        words = line.split()
        labels.append(" ".join(words[:-5]))
        energy, error = (float.fromhex(v) for v in words[-5:-3])
        l_max, m_max, kappa_nodes = (int(v) for v in words[-3:])
        assert energy < 0.0 < error and l_max >= 2 and m_max >= -1 and kappa_nodes >= 16
    for line in small_gap:
        words = line.split()
        labels.append(" ".join(words[:-4]))
        pfa, e0, e1, theta = (float.fromhex(v) for v in words[-4:])
        # E0 is the PFA bit for bit; E1 has the opposite sign at these sheets
        assert labels[-1].startswith("small-gap ") and pfa == e0 < 0.0 < e1 and theta < 0.0
    assert all(labels) and len(set(labels)) == 32


def test_ab_time_runs_one_round_of_a_checkout_against_itself():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "ab_time.py"), REPO, REPO,
                          "--rounds", "1"],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    with open(os.path.join(REPO, "bench", "points.json"), encoding="utf-8") as f:
        n_points = len(json.load(f)["exact-wide"])
    assert len(lines) == 3 + n_points
    assert lines[0].startswith("A ") and lines[1].startswith("B ")
    assert "over 1 passes of exact-wide" in lines[0]
    assert float(lines[2].split("median ")[1].split()[0]) > 0.0
    # then each point's median per checkout, in the order of bench/points.json
    for i, line in enumerate(lines[3:]):
        label, rest = line.split(": ")
        a, b, ratio = rest.split(", ")
        assert label == f"exact-wide[{i}]"
        assert a.startswith("A median ") and b.startswith("B median ")
        assert ratio.startswith("B/A ")
        assert min(float(a.split()[2]), float(b.split()[2]), float(ratio.split()[1])) > 0.0


def test_ab_time_times_the_asympt_sweep_rows():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "ab_time.py"), REPO, REPO,
                          "--workload", "asympt-sweep", "--rounds", "1"],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    with open(os.path.join(REPO, "bench", "points.json"), encoding="utf-8") as f:
        n_gaps = len(json.load(f)["asympt-sweep"]["gaps_m"])
    assert len(lines) == 3 + n_gaps
    assert "over 1 passes of asympt-sweep" in lines[0]
    # one line per gap, each side's median time of its pfa and asympt rows
    for i, line in enumerate(lines[3:]):
        label, rest = line.split(": ")
        a, b, ratio = rest.split(", ")
        assert label == f"asympt-sweep[{i}]"
        assert min(float(a.split()[2]), float(b.split()[2]), float(ratio.split()[1])) > 0.0
