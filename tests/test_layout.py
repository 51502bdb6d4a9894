"""The jet coefficient layout is private to ``jets``: other modules work on
jets through its functions and methods, never on the coefficient array."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "singclass"
LAYOUT = re.compile(r"\.coeffs|\.njet\b|\.value_ndim|\.jet_shape|\bJet\(")


def test_only_jets_touches_the_coefficient_layout():
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "jets.py"
            for no, line in enumerate(path.read_text().splitlines(), 1) if LAYOUT.search(line)]
    assert hits == []


def test_one_truncated_product_loop():
    counts = {path.name: path.read_text().count("np.ndindex") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"jets.py": 1}
