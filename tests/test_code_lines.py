from helpers import load_script

code_lines = load_script("code_lines")

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
    # definitions: Box, its method size, and fetch
    assert code_lines.count_definitions(FIXTURE) == 3


def test_source_without_docstrings_or_comments():
    assert code_lines.count_lines("x = 1\n\ny = 2\n") == (3, 2)
