"""The code-line counter that reports the package's size."""

from codelines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        return max(
            1,
            len(os.sep),
        )
'''


def test_counts_tokens_outside_docstrings_and_comments():
    # import, class, def, and the four lines of the call
    assert code_lines(SOURCE) == 7


def test_a_string_that_is_no_docstring_counts():
    assert code_lines('x = 1\n"""not a docstring,\nsince it is no first statement"""\n') == 3
