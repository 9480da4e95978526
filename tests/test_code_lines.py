"""The code-line counter that ROADMAP's code-line figures come from."""

import code_lines

# Seven code lines: the import, the two lines of the def, the two of the
# return, the class line and its assignment.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment-only line
def join(a,
         b):
    """Function docstring."""
    return os.path.join(a,
                        b)


class Holder:
    """Class docstring."""

    value = 1
'''


def test_counts_a_fixture_without_docstrings_comments_or_blank_lines():
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 10, 16}
    assert code_lines.code_lines(FIXTURE) == 7


def test_script_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text("")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "empty 0\nfixture 7\ntotal 7\n"
