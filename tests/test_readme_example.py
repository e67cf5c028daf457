"""README's "Library example" runs as written, and each line whose comment is a Python literal gives that value."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_as_written():
    source = _library_example()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline) if token.type == tokenize.COMMENT
    }
    namespace, checked = {}, []
    for statement in ast.parse(source).body:
        try:
            expected = ast.literal_eval(comments.get(statement.end_lineno, ""))
        except (ValueError, SyntaxError):  # no comment, or one in words
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr), ast.get_source_segment(source, statement)
        got = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert got == expected, ast.get_source_segment(source, statement)
        checked.append(expected)
    assert checked == [107, (1, -70, 433), "HELLO", ["HELLO", "HELLO"]]
