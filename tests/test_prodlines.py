"""The report of statements that never ran, on a small module."""

import importlib.util

from prodlines import LineTracer, report

SOURCE = '''"""A module with one branch taken and one not."""


def sign(x):
    """Docstring: no code."""
    if x > 0:
        label = "positive"
    else:
        label = "not positive"
    return label
'''


def test_reports_the_branch_not_taken(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(SOURCE)
    with LineTracer(package) as tracer:
        spec = importlib.util.spec_from_file_location("prodlines_probe", package / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(1) == "positive"
    text = report(package, tracer.lines)
    # the module docstring, the def, the if, both assignments and the return
    assert text == ("mod.py\n"
                    "  sign\n"
                    '    9: label = "not positive"\n'
                    "\n"
                    "     1 of     6  mod.py\n"
                    "     1 of     6  total never ran (0 raise, 1 other)")
