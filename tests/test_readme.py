"""The README's "Sixty seconds" block runs verbatim and says what it
claims in its comments."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sixty_seconds() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Sixty seconds", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, "no python block under 'Sixty seconds'"
    return match.group(1)


def test_sixty_seconds_block_runs():
    ns: dict = {}
    exec(compile(_sixty_seconds(), "README.md#sixty-seconds", "exec"), ns)
    le, from_int, to_int = ns["le"], ns["from_int"], ns["to_int"]
    assert str(le(10, from_int(3), from_int(7))) == "Some true"
    assert str(le(10, from_int(7), from_int(3))) == "Some false"
    assert str(le(3, from_int(0), from_int(99))) == "None"
    assert sorted(
        to_int(n) for (n,) in ns["smaller"].values(10, from_int(5))
    ) == [0, 1, 2, 3, 4, 5]
    samples = ns["bigger"].samples(8, from_int(2), count=5, seed=7)
    assert len(samples) == 5 and all(to_int(m) >= 2 for (m,) in samples)
    assert ns["certify_checker"](ns["ctx"], "le").ok
