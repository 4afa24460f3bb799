"""README's Library block runs, and each value a comment in it shows is
the value the line returns: a comment ending in ``...`` is a prefix of the
value's repr, and any other comment is the repr itself."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    return re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)


def test_library_block_shows_what_it_returns():
    source = library_block()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    shown = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if node.end_lineno not in comments:
            exec(code, namespace)
            continue
        assert isinstance(node, ast.Expr), f"a comment on a statement shows nothing: {code}"
        value = repr(eval(code, namespace))
        comment = comments.pop(node.end_lineno)
        if comment.endswith("..."):
            shown.append((code, value[: len(comment) - 3] + "...", comment))
        else:
            shown.append((code, value, comment))
    assert comments == {}
    assert len(shown) == 3
    assert [(code, value) for code, value, _ in shown] == [
        (code, comment) for code, _, comment in shown
    ]
