import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return len(text)


async def fetch():
    """Async docstring."""
    "a string statement after the docstring"
'''


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # code: import, class, def, the two string lines, return, async def, string
    assert code_lines.count_lines(FIXTURE) == (21, 8)


def test_source_without_docstrings_or_comments():
    assert code_lines.count_lines("x = 1\n\ny = 2\n") == (3, 2)
