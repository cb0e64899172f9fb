"""The README's Python example runs as written against the library."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

TEXTS = [
    "the engine burns liquid fuel",
    "fuel pumps feed the engine",
    "a rocket engine needs fuel and oxygen",
    "the harvest filled the barn",
    "wheat harvest needs dry soil",
    "dry soil gives a poor wheat harvest",
]


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {"texts": TEXTS}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert float(capsys.readouterr().out) > 1.0  # the printed perplexity
    assert namespace["weights"].shape == (1, 32)
    np.testing.assert_allclose(namespace["weights"].sum(), 1.0)
    assert namespace["coords"].shape == (1, 2)
    ranking = namespace["rankings"].doc_ids[0]
    assert sorted(ranking.tolist()) == list(range(len(TEXTS)))
    assert set(ranking[:3].tolist()) == {0, 1, 2}  # the engine documents
