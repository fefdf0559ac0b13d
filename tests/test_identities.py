"""Koopman identities through `koopdmd run`: each is a change to a
recipe's config whose effect on the spectrum is known without a
reference (metamorphic testing).

- shift: starting s samples later (system.skip s, embedding.m - s) keeps
  every eigenvalue, since phi(T^s x) = lambda^s phi(x) only rescales
  each eigenfunction's samples;
- stride: keeping every 2nd sample (embedding.stride 2, m cut to fit)
  squares every eigenvalue.

Every mode of rotation-check and torus-synth is an atom of the spectrum,
so their eigenvalues are compared as sets.
"""

import json

import numpy as np
import pytest

from koopdmd import cli

#: Largest distance between the eigenvalue sets that an identity relates.
BOUND = 1e-12

#: recipe -> (shift s, m that fits stride 2): rotation-check has 2009
#: samples and n = 8, torus-synth 6501 and n = 500.
CHANGES = {"rotation-check": (5, 996), "torus-synth": (40, 2750)}


def eigenvalues(tmp_path, raw, name) -> np.ndarray:
    """dmd.json's eigenvalues of a `koopdmd run` of the config raw."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    table = json.loads((out / "dmd.json").read_text(encoding="utf-8"))["eigenvalues"]
    return np.array([complex(e["re"], e["im"]) for e in table])


def set_distance(x, y) -> float:
    """The largest distance from a point of x or of y to the nearest point
    of the other; infinite if their sizes differ."""
    if len(x) != len(y):
        return np.inf
    gaps = np.abs(np.subtract.outer(x, y))
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


@pytest.fixture(scope="module", params=sorted(CHANGES))
def recipe(request, tmp_path_factory):
    """A recipe's name and the eigenvalues of its run."""
    name = request.param
    return name, eigenvalues(tmp_path_factory.mktemp(name), cli.recipe_config(name), "base")


def test_shift_keeps_the_eigenvalues(recipe, tmp_path):
    name, base = recipe
    s = CHANGES[name][0]
    raw = cli.recipe_config(name)
    raw["system"]["skip"] = s
    raw["embedding"]["m"] -= s
    assert set_distance(eigenvalues(tmp_path, raw, "shifted"), base) <= BOUND


def test_stride_squares_the_eigenvalues(recipe, tmp_path):
    name, base = recipe
    raw = cli.recipe_config(name)
    raw["embedding"].update(stride=2, m=CHANGES[name][1])
    assert set_distance(eigenvalues(tmp_path, raw, "strided"), base ** 2) <= BOUND
