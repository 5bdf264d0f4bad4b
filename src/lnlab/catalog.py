"""Shipped example scenes.

Each entry is a complete scene file; `lnlab examples show <name>` prints the
source verbatim and `lnlab examples run <name>` executes it.
"""

from __future__ import annotations

__all__ = ["EXAMPLES", "example_names", "example_source"]


EXAMPLES: dict[str, str] = {}


EXAMPLES["pn-xid"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "r": {"type": "endomorphism", "matrix": [["x", "0"], ["0", "x"]]}
  },
  "checks": [
    {"check": "pn", "bivector": "pi0", "endomorphism": "r"},
    {"check": "kosmann", "bivector": "pi0", "endomorphism": "r"},
    {"check": "torsion", "endomorphism": "r"}
  ]
}
"""


EXAMPLES["pn-J2"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "J": {"type": "endomorphism", "matrix": [["0", "-1"], ["1", "0"]]}
  },
  "checks": [
    {"check": "pn", "bivector": "pi0", "endomorphism": "J"},
    {"check": "torsion", "endomorphism": "J"}
  ]
}
"""


EXAMPLES["lnb-tangent-xid"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "r": {"type": "endomorphism", "matrix": [["x", "0"], ["0", "x"]]},
    "A": {"type": "tangent_algebroid"},
    "Astar": {"type": "cotangent_algebroid", "bivector": "pi0"},
    "D": {"type": "gder_tangent", "endomorphism": "r"}
  },
  "checks": [
    {"check": "lnb", "base": "A", "dual": "Astar", "gder": "D"},
    {"check": "base_pn", "base": "A", "dual": "Astar", "gder": "D"},
    {"check": "deform_hierarchy", "base": "A", "dual": "Astar", "gder": "D", "depth": 2}
  ]
}
"""


EXAMPLES["lnb-holomorphic-J2"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "zero": {"type": "bivector", "coeffs": {}},
    "J": {"type": "endomorphism", "matrix": [["0", "-1"], ["1", "0"]]},
    "A": {"type": "tangent_algebroid"},
    "Astar": {"type": "cotangent_algebroid", "bivector": "zero"},
    "D": {"type": "gder_tangent", "endomorphism": "J"}
  },
  "checks": [
    {"check": "lnb", "base": "A", "dual": "Astar", "gder": "D"},
    {"check": "holomorphic", "base": "A", "dual": "Astar", "gder": "D"}
  ]
}
"""


EXAMPLES["bialgebra-aff2"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "aff2": {
      "type": "algebroid",
      "frame": ["e1", "e2"],
      "anchor": [["0", "0"], ["0", "0"]],
      "brackets": {"e1,e2": ["0", "1"]}
    },
    "aff2dual": {
      "type": "algebroid",
      "frame": ["e1*", "e2*"],
      "anchor": [["0", "0"], ["0", "0"]],
      "brackets": {"e1*,e2*": ["0", "-1"]}
    }
  },
  "checks": [
    {"check": "algebroid", "target": "aff2"},
    {"check": "algebroid", "target": "aff2dual"},
    {"check": "bialgebroid", "base": "aff2", "dual": "aff2dual"}
  ]
}
"""


EXAMPLES["kosmann-roundtrip"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "r": {"type": "endomorphism", "matrix": [["x + y", "0"], ["0", "x + y"]]}
  },
  "checks": [
    {"check": "pn", "bivector": "pi0", "endomorphism": "r"},
    {"check": "kosmann", "bivector": "pi0", "endomorphism": "r"}
  ]
}
"""


EXAMPLES["mm1-random"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "J": {"type": "endomorphism", "matrix": [["0", "-1"], ["1", "0"]]},
    "X": {"type": "vector_field", "components": ["y", "0"]}
  },
  "checks": [
    {"check": "mm1", "bivector": "pi0", "endomorphism": "J", "field": "X"},
    {"check": "mm1_random", "dims": [2, 3], "count": 3, "seed": 7}
  ]
}
"""


EXAMPLES["hierarchy-xid"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "r": {"type": "endomorphism", "matrix": [["x", "0"], ["0", "x"]]}
  },
  "checks": [
    {"check": "hierarchy", "bivector": "pi0", "endomorphism": "r", "depth": 2}
  ]
}
"""


EXAMPLES["lift-xid"] = """\
{
  "chart": ["x", "y"],
  "objects": {
    "r": {"type": "endomorphism", "matrix": [["x", "0"], ["0", "x"]]},
    "D": {"type": "gder_tangent", "endomorphism": "r"},
    "Dstar": {"type": "gder_cotangent", "endomorphism": "r"}
  },
  "checks": [
    {"check": "correspondence", "gder": "D"},
    {"check": "correspondence", "gder": "Dstar"}
  ]
}
"""


def example_names() -> list[str]:
    return sorted(EXAMPLES)


def example_source(name: str) -> str:
    return EXAMPLES[name]
