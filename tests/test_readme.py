"""The README's library example runs and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

from concap.genfun import DEFAULT_TOL

README = Path(__file__).resolve().parent.parent / "README.md"


def run_python_block(text):
    """Run the one fenced ``python`` block of ``text`` statement by statement;
    map each expression statement's source to its value."""
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README.name, "eval")
            values[source] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    return values


def test_library_example():
    values = run_python_block(README.read_text(encoding="utf-8"))
    assert math.isclose(values["cc.abscissa(system).q"], math.log(2), abs_tol=DEFAULT_TOL)
    assert values["cc.converges(system, 0.7)"] is True
    capacity = values["cc.capacity_jk(2, 2)"]
    assert abs(capacity - 0.4812118250596) < 1e-12
    assert abs(values["cc.solve_rate(support).rate"] - capacity) <= DEFAULT_TOL
    assert values["cc.validate_input_process(pmf, cc.build_jk_system(2, 2), depth=3).valid"] is True
    assert len(values) == 6  # the last line, the three spectrum estimators, ran too
