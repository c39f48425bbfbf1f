"""``tools/code_lines.py`` counts, per module and in total, the lines that
are not blank, not only a comment and not inside a docstring."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 5 code lines: the import, the class and def lines, the assignment and the return.
MODULE_A = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = "a string, not a docstring"
        return x
'''

# 5 code lines: both defs, the two lines of the returned string and ``pass``.
MODULE_B = """def g():
    '''One line.'''
    # an indented comment
    return '''a string
that is not a docstring'''


async def h():
    \"\"\"Async docstring
    on three lines.
    \"\"\"

    pass
"""


def test_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE_A, encoding="utf-8")
    (tmp_path / "b.py").write_text(MODULE_B, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                          text=True, timeout=60, check=True)
    counts = dict(line.split() for line in proc.stdout.splitlines())
    assert counts == {"a.py": "5", "b.py": "5", "total": "10"}
