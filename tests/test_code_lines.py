"""The code-line counter in ``tools/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

# A comment line.
def clamp(x):
    """A function docstring."""
    return max(x,
               0)  # a call over two lines, with a trailing comment


class Box:
    """A class docstring."""

    label = """a string that is
not a docstring"""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    # def, the call's two lines, class, and the two lines of the string.
    assert out.splitlines() == [f"      6  {path}", "      6  total"]
