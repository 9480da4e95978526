"""Count the code lines of the package's modules.

A line counts if it holds a token other than a comment, a newline, an
indent or a dedent, and lines inside a module, class or function docstring
(found with ``ast``) do not count, so docstrings, comments and blank lines
are skipped. A token that spans lines, such as a triple-quoted string that
is not a docstring, counts on every line it spans.

Run as a script, it prints one ``module count`` line per module of
``src/rotoxor`` and then the total:

    python tests/code_lines.py [DIRECTORY]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotoxor"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines inside a module, class or function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {row for tok in tokens if tok.type not in _NOT_CODE
             for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(source))


def package_counts(directory: Path = PACKAGE) -> dict[str, int]:
    """Code lines of each ``*.py`` module in ``directory``, by module name."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    counts = package_counts(Path(argv[0]) if argv else PACKAGE)
    for module, count in counts.items():
        print(f"{module} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
