"""The package declares ``numpy>=1.24`` while the tests run on numpy 2.x, so
numpy-2-only arguments must not creep into ``src/kdvlab``: an ``out=`` keyword
on a ``numpy.fft`` call (new in numpy 2.0) raises TypeError on numpy 1.x."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kdvlab"


def _fft_calls_with_out(tree):
    """Line numbers of ``np.fft.<name>(..., out=...)`` and
    ``numpy.fft.<name>(..., out=...)`` calls."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if (isinstance(owner, ast.Attribute) and owner.attr == "fft"
                and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy")
                and any(kw.arg == "out" for kw in node.keywords)):
            yield node.lineno


def test_the_checker_flags_an_fft_out_argument():
    code = "np.fft.rfft(a, axis=-1, out=b)\nnumpy.fft.ifft(a, out=b)\nnp.fft.fft(a)\n"
    assert list(_fft_calls_with_out(ast.parse(code))) == [1, 2]


def test_no_fft_call_in_src_passes_out():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _fft_calls_with_out(ast.parse(path.read_text()))]
    assert not found, f"numpy-2-only out= on numpy.fft calls: {found}"
