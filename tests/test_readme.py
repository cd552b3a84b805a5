"""The README's "Library quick tour" runs as written, with the shapes its
comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def quick_tour() -> str:
    """The python block under the README's "Library quick tour" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_with_its_documented_shapes():
    namespace = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    shapes = {name: namespace[name].shape for name in
              ("allocs", "approx", "better", "group", "rows", "t", "same_rate")}
    assert shapes == {"allocs": (19, 10), "approx": (1, 10), "better": (10,),
                      "group": (3, 10), "rows": (6, 10), "t": (1, 10), "same_rate": (1, 10)}
    prof = namespace["prof"]  # a stack of one row
    assert prof.beta_self.shape == (1, 10) and prof.cross_sum.shape == (1, 1)
    for name, shape in (("rates", (10,)), ("ci", (10,)), ("row_rates", (2, 10)),
                        ("row_ci", (2, 10))):
        assert namespace[name].shape == shape and not namespace[name].flags.writeable
    assert np.array_equal(namespace["row_rates"][0], namespace["rates"])
