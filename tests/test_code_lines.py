"""The line counter that measures the size of the source tree."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import os   # a comment after code


class Thing:
    """Class docstring."""

    # a comment line

    def method(self):
        """Method docstring,
        on two lines."""
        text = """a string that
is no docstring"""
        return os.path.join(text,
                            "b")
'''


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path):
    # import, class, def, the two lines of the string assignment and the two
    # lines of the return statement
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path) == 7


def test_main_total_is_the_sum_of_the_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "small.py").write_text('"""Doc."""\nx = (1,\n     2)\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1] == ["9", "total"]
    assert sorted((Path(p).name, int(c)) for c, p in rows[:-1]) == [("sample.py", 7),
                                                                   ("small.py", 2)]
