"""Count code lines in each module of src/fairalloc and of tests, skipping comments, blank lines and docstrings.

Usage: python3 tools/code_lines.py
"""

import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}  # a statement begins after these or at the top


def code_lines(source: str) -> int:
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type != tokenize.NL]
    lines = set()
    for i, tok in enumerate(tokens):
        starts = i == 0 or tokens[i - 1].type in STARTS
        docstring = tok.type == tokenize.STRING and starts and tokens[i + 1].type == tokenize.NEWLINE
        if tok.type not in SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


repo = pathlib.Path(__file__).resolve().parent.parent
for directory in ("src/fairalloc", "tests"):
    counts = {p.stem: code_lines(p.read_text(encoding="utf-8")) for p in sorted((repo / directory).glob("*.py"))}
    width = max(map(len, counts)) + 1
    print(directory)
    for name, n in counts.items():
        print(f"{name:{width}} {n}")
    print(f"{'total':{width}} {sum(counts.values())}")
