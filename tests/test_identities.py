"""Koopman identities through `koopdmd run`: each is a change to a
recipe's config whose effect on the spectrum is known without a
reference (metamorphic testing).

- shift: starting s samples later (system.skip s, embedding.m - s) keeps
  every eigenvalue, since phi(T^s x) = lambda^s phi(x) only rescales
  each eigenfunction's samples, and each mode is the base mode's rows
  [s:] brought back to unit norm, up to one unit factor;
- stride: keeping every 2nd sample (embedding.stride 2, m cut to fit)
  squares every eigenvalue;
- affine: the observable 3*(f) + 2 keeps every eigenvalue and adds one
  at 1, since a constant is an eigenfunction at 1 and the rank rises by
  one;
- scale: the observable 1e300*(f) keeps every eigenvalue and scales the
  POD singular values by 1e300;
- reversal: the series read back in reverse order (a `csv` source with
  the same t column) turns each eigenvalue lambda into conj(lambda) =
  1/lambda on the unit circle, and the mode for conj(lambda), read
  bottom row first, is the forward mode times one unit factor: row i of
  the reversed Hankel matrix holds the samples of forward row m-1-i;
- swapped starts: vdp-phase with its two start states in the other order
  permutes the rows of the interleaved Hankel matrix, (c*i, c*i+1) to
  (c*i+1, c*i), which keeps every eigenvalue and swaps those rows of
  every mode, up to one unit factor per mode.

Every mode of rotation-check and torus-synth is an atom of the spectrum,
so their eigenvalues are compared as sets. vdp-phase's are compared by
position, since swapping the starts leaves the energy order as it was.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from koopdmd import analysis, cli

#: Largest distance between the eigenvalue sets that an identity relates.
BOUND = 1e-12

#: recipe -> (shift s, m that fits stride 2): rotation-check has 2009
#: samples and n = 8, torus-synth 6501 and n = 500.
CHANGES = {"rotation-check": (5, 996), "torus-synth": (40, 2750)}


def run(tmp_path, raw, name) -> Path:
    """The output directory of a `koopdmd run` of the config raw."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return out


def eigenvalues(out) -> np.ndarray:
    """dmd.json's eigenvalues in the output directory out."""
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
    """A recipe's name and the output directory of its run."""
    name = request.param
    return name, run(tmp_path_factory.mktemp(name), cli.recipe_config(name), "base")


def pairing(x, y) -> np.ndarray:
    """pair[i]: the index of y's eigenvalue nearest x[i]. It must be a
    permutation, so that each eigenvalue of x has its own partner."""
    pair = np.abs(np.subtract.outer(x, y)).argmin(axis=1)
    assert sorted(pair) == list(range(len(y)))
    return pair


def unit_gap(x, y) -> float:
    """The largest cell gap between x and y after each column of y is
    turned by the unit factor that best aligns it with x's."""
    inner = np.sum(np.conj(y) * x, axis=0)
    return float(np.max(np.abs(x - y * (inner / np.abs(inner)))))


def test_shift_keeps_the_eigenvalues(recipe, tmp_path):
    # Row i of the shifted run's Hankel matrix is row s + i of the base
    # run's, so each shifted mode is the base mode's rows [s:], brought
    # back to unit norm, times one unit factor. Measured at one and two
    # BLAS threads: 2.5e-15 on rotation-check, 0.90-1.05e-15 on torus-synth.
    name, base = recipe
    s = CHANGES[name][0]
    raw = cli.recipe_config(name)
    raw["system"]["skip"] = s
    raw["embedding"]["m"] -= s
    shifted = run(tmp_path, raw, "shifted")
    before, after = eigenvalues(base), eigenvalues(shifted)
    pair = pairing(before, after)
    assert np.max(np.abs(before - after[pair])) <= BOUND
    rows = np.load(base / "modes.npy")[s:]
    rows /= np.linalg.norm(rows, axis=0)
    assert unit_gap(rows, np.load(shifted / "modes.npy")[:, pair]) <= BOUND


def test_stride_squares_the_eigenvalues(recipe, tmp_path):
    # The strided run's mode rows sample every 2nd angle state, so each
    # matches exp(i k . theta) at those states: variances of 2.0e-27 on
    # rotation-check and 3.2e-28 on torus-synth, 1.99 if the table paired
    # them with unstrided states.
    name, base = recipe
    raw = cli.recipe_config(name)
    raw["embedding"].update(stride=2, m=CHANGES[name][1])
    strided = run(tmp_path, raw, "strided")
    assert set_distance(eigenvalues(strided), eigenvalues(base) ** 2) <= BOUND
    with open(strided / "frequency_table.csv", newline="", encoding="utf-8") as fh:
        variances = [float(row["eigfun_variance"]) for row in csv.DictReader(fh)]
    assert variances and max(variances) <= 1e-20


def test_affine_observable_adds_an_eigenvalue_at_one(recipe, tmp_path):
    name, base = recipe
    raw = cli.recipe_config(name)
    [observable] = raw["observables"]
    f = observable.get("expression", "cos(z1)")  # rotation-check's cos_angle is cos(z1)
    raw["observables"] = [{"kind": "custom", "expression": f"3*({f}) + 2"}]
    affine = eigenvalues(run(tmp_path, raw, "affine"))
    one = np.argmin(np.abs(affine - 1.0))
    assert abs(affine[one] - 1.0) <= BOUND
    assert set_distance(np.delete(affine, one), eigenvalues(base)) <= BOUND


def test_observable_at_scale_1e300_keeps_the_spectrum(recipe, tmp_path):
    # The truncation tail's squares would overflow unscaled, and the run
    # would stop with dmd.json and run.json unwritten. Measured at 1e300:
    # eigenvalues within 7.4e-16 (rotation-check) and 1.4e-15 (torus-synth),
    # POD singular values within 1.4e-15 relative.
    name, base = recipe
    raw = cli.recipe_config(name)
    [observable] = raw["observables"]
    f = observable.get("expression", "cos(z1)")
    raw["observables"] = [{"kind": "custom", "expression": f"1e300*({f})"}]
    scaled = run(tmp_path, raw, "scaled")
    assert sorted(p.name for p in scaled.iterdir()) == sorted(p.name for p in base.iterdir())
    assert set_distance(eigenvalues(scaled), eigenvalues(base)) <= BOUND
    sigma = [np.array(json.loads((out / "pod.json").read_text(encoding="utf-8"))
                      ["singular_values"]) for out in (base, scaled)]
    assert sigma[0].shape == sigma[1].shape
    assert np.max(np.abs(sigma[1] / 1e300 - sigma[0]) / sigma[0]) <= BOUND


def test_reversal_conjugates_eigenvalues_and_reverses_mode_rows(recipe, tmp_path):
    name, base = recipe
    header, *lines = (base / "series_1.csv").read_text(encoding="utf-8").splitlines()
    t, values = zip(*(line.split(",") for line in lines))
    path = tmp_path / "reversed.csv"
    path.write_text("\n".join([header, *map(",".join, zip(t, values[::-1]))]) + "\n",
                    encoding="utf-8")
    raw = {"csv": str(path), "embedding": cli.recipe_config(name)["embedding"]}
    back = run(tmp_path, raw, "reversed")
    forward, reverse = eigenvalues(base), eigenvalues(back)
    pair = pairing(np.conj(forward), reverse)
    assert np.max(np.abs(np.conj(forward) - reverse[pair])) <= BOUND
    modes = np.load(base / "modes.npy")
    assert unit_gap(modes, np.load(back / "modes.npy")[::-1, pair]) <= BOUND


#: Swapped starts on vdp-phase, measured at one and two BLAS threads with
#: 54 modes on each side: eigenvalues 5.6e-10 apart by position, the
#: dominant frequency 6.9e-13 rad/s, mode rows 7.5e-9 over every mode and
#: 1.3e-13 for the dominant one.
SWAP_BOUNDS = {"eigenvalues": 1e-8, "frequency": 1e-10, "modes": 1e-7, "dominant mode": 1e-11}


def test_swapped_starts_keep_the_eigenvalues_and_swap_mode_rows(tmp_path):
    raw = cli.recipe_config("vdp-phase")
    base = run(tmp_path, raw, "base")
    raw["system"]["z0"].reverse()
    swapped = run(tmp_path, raw, "swapped")
    a, b = eigenvalues(base), eigenvalues(swapped)
    assert len(a) == len(b)
    dt = raw["system"]["dt"]
    dominant = analysis.dominant_nontrivial(a, dt)
    assert dominant == analysis.dominant_nontrivial(b, dt)
    rows = np.load(swapped / "modes.npy")
    rows = rows.reshape(-1, 2, rows.shape[1])[:, ::-1].reshape(rows.shape)
    modes = np.load(base / "modes.npy")
    gaps = {
        "eigenvalues": np.max(np.abs(a - b)),
        "frequency": abs(analysis.eig_to_freq(a[dominant], dt)
                         - analysis.eig_to_freq(b[dominant], dt)),
        "modes": unit_gap(modes, rows),
        "dominant mode": unit_gap(modes[:, [dominant]], rows[:, [dominant]]),
    }
    assert all(gaps[key] <= SWAP_BOUNDS[key] for key in SWAP_BOUNDS), gaps
