import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line code


def f(a,
      b):
    """Function docstring."""
    # a comment line
    return (a
            + b)


class C:
    """Class docstring."""

    x = "a string that is not a docstring"
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    # code: import, def over two lines, return over two lines, class, x
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [f"     7  {path}", "     7  total"]
