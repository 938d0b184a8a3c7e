"""The README's library quickstart runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["cm"] > 0.0 and ns["cp"] > 0.0
    assert 0.0 < ns["ideal"] <= 1.0
    assert len(ns["records"]) == 50
    np.testing.assert_array_equal(ns["curve"].delta_t, np.array([1, 2, 3, 5, 8]) * 1e-3)
