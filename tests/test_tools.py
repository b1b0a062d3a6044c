"""The scripts under ``tools/`` that changes to the library are measured with."""

import importlib.util
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
    assert len(lines) == 18
    labels = []
    for line in lines:
        words = line.split()
        labels.append(" ".join(words[:-5]))
        energy, error = (float.fromhex(v) for v in words[-5:-3])
        l_max, m_max, kappa_nodes = (int(v) for v in words[-3:])
        assert energy < 0.0 < error and l_max >= 2 and m_max >= -1 and kappa_nodes >= 16
    assert all(labels) and len(set(labels)) == 18


def test_ab_time_runs_one_round_of_a_checkout_against_itself():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "ab_time.py"), REPO, REPO,
                          "--rounds", "1"],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("A ") and lines[1].startswith("B ")
    assert "over 1 passes of exact-wide" in lines[0]
    assert float(lines[2].split("median ")[1].split()[0]) > 0.0
