"""Exact-arithmetic toolkit for nilpotent Lie algebra towers.

Submodules:
  ratlin   sparse rational linear algebra (RREF, kernels, quotients)
  freelie  Hall bases of free Lie algebras stratified by derived level
  fplie    finitely presented Lie algebras, ideal spans, LCS quotients
  nilquot  LCS quotients, built one weight layer at a time
  cdga     finite commutative differential graded algebras, holonomy,
           resonance, group actions
  ce       Chevalley-Eilenberg complexes, flat connections, classifying
           maps, filtration stability
  cli      batch command line driver (entry point: lieobstruct)
"""

__version__ = "0.1.0"


def data_path(name: str):
    """Filesystem path of a bundled example file (heis.json, torus.json, ...)."""
    from importlib.resources import files

    path = files(__name__).joinpath("data", name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return str(path)
