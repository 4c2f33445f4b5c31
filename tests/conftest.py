from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

import oddkit

# the same examples on every run, however long each takes
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def base_spec_text() -> str:
    return (DATA / "flight_envelope.odd").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def extended_spec_text() -> str:
    return (DATA / "flight_envelope_extended.odd").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def base_doc(base_spec_text) -> oddkit.SpecDocument:
    doc = oddkit.parse_spec(base_spec_text)
    assert doc.ok, [str(d) for d in doc.errors]
    return doc


@pytest.fixture(scope="session")
def extended_doc(extended_spec_text) -> oddkit.SpecDocument:
    doc = oddkit.parse_spec(extended_spec_text)
    assert doc.ok, [str(d) for d in doc.errors]
    return doc


@pytest.fixture(scope="session")
def chain(extended_doc) -> oddkit.Chain:
    return oddkit.build_chain(extended_doc)


@pytest.fixture(scope="session")
def two_extensions_text(extended_spec_text) -> str:
    """The extended corpus plus a second node extending MLMODD, with
    Pressure in Temp's place: no single extension node can be inferred."""
    return extended_spec_text + """
odd "MLMODD_ext2" level mlm_odd variant as_specified extends "MLMODD" {
  param Mach: mach range [0, 0.4] class operational
  param Alt: ft range [0, 15000] class environmental
  param Pressure: hPa range [100, 1100] class environmental
  region polytope {
    halfspace -1 0 0 <= 0
    halfspace 1 0 0 <= 0.4
    halfspace 0 -1 0 <= 0
    halfspace 5000 1 0 <= 16000
    halfspace -10000 1 0 <= 13000
    halfspace 0 0 1 <= 1100
    halfspace 0 0 -1 <= -100
    vertex (0, 0, 100)
    vertex (0.4, 0, 100)
    vertex (0.4, 14000, 100)
    vertex (0.2, 15000, 100)
    vertex (0, 13000, 100)
    vertex (0, 0, 1100)
    vertex (0.4, 0, 1100)
    vertex (0.4, 14000, 1100)
    vertex (0.2, 15000, 1100)
    vertex (0, 13000, 1100)
  }
}
"""


@pytest.fixture(scope="session")
def rounded_square_text() -> str:
    """The unit square as halfspaces, its vertices listed rounded inward."""
    return """
odd "SQ" level mlm_odd {
  param x: u range [0, 1]
  param y: u range [0, 1]
  region polytope {
    halfspace 1 0 <= 1
    halfspace -1 0 <= 0
    halfspace 0 1 <= 1
    halfspace 0 -1 <= 0
    vertex (0.001, 0.001) vertex (0.999, 0.001) vertex (0.999, 0.999) vertex (0.001, 0.999)
  }
}
"""


@pytest.fixture(scope="session")
def golden_text() -> str:
    return (DATA / "golden_points.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_dataset(golden_text, chain) -> oddkit.Dataset:
    ds = oddkit.parse_dataset(golden_text, chain.mlm)
    assert ds.ok, [str(d) for d in ds.diagnostics]
    return ds


@pytest.fixture(scope="session")
def golden_labels_text() -> str:
    return (DATA / "golden_labels.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA
