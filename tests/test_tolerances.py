"""Every threshold of the package is a named constant of ``wayspan.tolerances``.

A verdict is reproducible only if its thresholds are fixed in one place, so
no module may carry a literal in exponent notation, and the documented
table of ``tolerances`` must list exactly its constants with their values.
"""

import ast
import re
import tokenize
from pathlib import Path

import wayspan
from wayspan import tolerances

SRC = Path(wayspan.__file__).parent
# A table row starts with the constant's name, then its value.
ROW = re.compile(r"^([A-Z][A-Z0-9_]*)\s+(\S+)\s")
# A row's text ends with the modules that test against it, in parentheses.
MODULES = re.compile(r"\(([a-z_]+(?:, [a-z_]+)*)\)$")


def _exponent_literals(path):
    """``file:line: token`` for every exponent-notation number; strings and comments are skipped."""
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                yield f"{path.name}:{tok.start[0]}: {tok.string}"


def test_no_exponent_literal_outside_the_table():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"]
    assert len(modules) > 5
    assert [hit for p in modules for hit in _exponent_literals(p)] == []


def test_scan_sees_numbers_but_not_strings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""1e-3 in a docstring"""\nx = 2.5E-4  # 1e-9 in a comment\ny = 0xE1\n')
    assert list(_exponent_literals(probe)) == ["probe.py:2: 2.5E-4"]


def test_table_lists_every_constant_with_its_value():
    rows = {}
    for line in tolerances.__doc__.splitlines():
        match = ROW.match(line)
        if match:
            assert match.group(1) not in rows, f"duplicate row {match.group(1)}"
            rows[match.group(1)] = float(match.group(2))
    constants = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert rows == constants
    assert all(isinstance(v, float) and v > 0.0 for v in constants.values())


def _row_texts():
    """Constant name -> the whole text of its table row, continuation lines joined."""
    rows = {}
    name = None
    for line in tolerances.__doc__.splitlines():
        match = ROW.match(line)
        if match:
            name = match.group(1)
            rows[name] = line
        elif name is not None and line.startswith(" ") and line.strip():
            rows[name] += " " + line.strip()
        else:
            name = None
    return rows


def _importers():
    """Constant name -> the set of modules that import it from ``tolerances``."""
    users = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tolerances":
                for alias in node.names:
                    users.setdefault(alias.name, set()).add(path.stem)
    return users


def test_each_row_names_exactly_the_modules_that_use_its_constant():
    rows = _row_texts()
    assert set(rows) == {name for name in vars(tolerances) if name.isupper()}
    listed = {}
    for name, text in rows.items():
        match = MODULES.search(text)
        assert match, f"row {name} names no modules"
        listed[name] = set(match.group(1).split(", "))
    assert listed == _importers()


def test_row_parser_reads_continuation_lines():
    rows = _row_texts()
    assert MODULES.search(rows["TRACE_RTOL"]).group(1) == "matspace, model"
    assert MODULES.search(rows["DIV_FLOOR"]).group(1) == "cli"
