import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from koopdmd import cli, systems
from koopdmd.errors import DecompositionError, IntegrationError
from koopdmd.systems import Observable, SystemSpec


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SystemSpec("pendulum", {}, (0.0,), 0.1, 10)

    def test_missing_param(self):
        with pytest.raises(ValueError, match="rho"):
            SystemSpec("lorenz", {"sigma": 10.0, "beta": 8.0 / 3.0}, (1.0, 1.0, 1.0), 0.01, 10)

    def test_state_dimension(self):
        with pytest.raises(ValueError):
            SystemSpec("circle", {"omega": 1.0}, (0.0, 0.0), 1.0, 5)
        with pytest.raises(ValueError):
            SystemSpec("lorenz", dict(systems.LORENZ_PARAMS), (1.0, 1.0), 0.01, 5)

    def test_linear_map_needs_square_matrix(self):
        with pytest.raises(ValueError):
            SystemSpec("linear", {"matrix": [[1.0, 0.0]]}, (1.0, 0.0), 1.0, 3)

    @pytest.mark.parametrize("kind, params, z0, message", [
        ("lorenz", {**systems.LORENZ_PARAMS, "mu": 1}, (1.0, 1.0, 1.0),
         "mu: the lorenz kind reads only sigma, rho, beta; drop the key"),
        ("circle", {"omega": 1.0, "mu": 0.3}, (0.0,),
         "mu: the circle kind reads only omega; drop the key"),
        ("linear", {"matrix": [[1.0]], "omega": 1.0}, (1.0,),
         "omega: the linear kind reads only matrix; drop the key"),
    ], ids=["lorenz", "circle", "linear"])
    def test_parameter_of_another_kind(self, kind, params, z0, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SystemSpec(kind, params, z0, 0.01, 5)

    def test_positive_steps_and_dt(self):
        with pytest.raises(ValueError):
            SystemSpec("circle", {"omega": 1.0}, (0.0,), 0.0, 5)
        with pytest.raises(ValueError):
            SystemSpec("circle", {"omega": 1.0}, (0.0,), 1.0, 0)


class TestMaps:
    def test_circle_rotation_exact(self):
        traj = systems.integrate(SystemSpec("circle", {"omega": 0.3}, (0.7,), 2.0, 50))
        want = np.mod(0.7 + 0.3 * 2.0 * np.arange(51), 2.0 * np.pi)
        assert_allclose(traj.states[:, 0], want, rtol=0, atol=1e-12)
        assert traj.states.shape == (51, 1)

    def test_torus_rotation_exact(self):
        spec = SystemSpec("torus", {"omega1": 0.97624, "omega2": 0.60892}, (0.0, 1.0), 0.1, 40)
        traj = systems.integrate(spec)
        k = np.arange(41)
        assert_allclose(traj.states[:, 0], np.mod(0.97624 * 0.1 * k, 2 * np.pi), atol=1e-12)
        assert_allclose(traj.states[:, 1], np.mod(1.0 + 0.60892 * 0.1 * k, 2 * np.pi), atol=1e-12)

    def test_torus_orbit_fills_in(self):
        # an incommensurate rotation never revisits a point, and the gap to
        # the nearest previously visited point shrinks as the orbit grows
        spec = SystemSpec("torus", {"omega1": 1.0, "omega2": np.sqrt(2.0)}, (0.0, 0.0), 1.0, 2000)
        states = systems.integrate(spec).states

        def min_gap(pts):
            d = pts[:, None, :] - pts[None, :, :]
            d = np.abs(d)
            d = np.minimum(d, 2 * np.pi - d)
            r = np.sqrt((d ** 2).sum(-1))
            np.fill_diagonal(r, np.inf)
            return r.min()

        gaps = [min_gap(states[:n]) for n in (500, 1000, 2000)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_linear_map_powers(self):
        a = np.array([[0.0, 1.0], [-0.25, 0.0]])
        traj = systems.integrate(SystemSpec("linear", {"matrix": a}, (1.0, 0.0), 1.0, 4))
        want = np.array([np.linalg.matrix_power(a, k) @ [1.0, 0.0] for k in range(5)])
        assert_allclose(traj.states, want, atol=1e-14)


class TestFlows:
    def test_decay_flow_fourth_order(self):
        # dz/dt = -z from z=1: halving the step from 0.4 to 0.2 should cut
        # the endpoint error by roughly 2^4
        deriv = lambda z: (-z,)
        t_end = 4.0
        errs = []
        for dt in (0.4, 0.2):
            states = systems.integrate_flow(deriv, np.array([1.0]), dt, int(t_end / dt), max_substep=dt)
            errs.append(abs(states[-1, 0] - np.exp(-t_end)))
        ratio = errs[0] / errs[1]
        assert errs[1] < 1e-5
        assert 12.0 < ratio < 30.0

    def test_lorenz_stays_bounded(self):
        spec = SystemSpec("lorenz", dict(systems.LORENZ_PARAMS), (1.0, 1.0, 1.0), 0.01, 20_000)
        traj = systems.integrate(spec)
        assert np.max(np.abs(traj.states)) < 100.0

    def test_lorenz_halved_step_agreement(self):
        # chaotic, so only short-horizon agreement is meaningful
        z0 = (1.0, 1.0, 1.0)
        params = dict(systems.LORENZ_PARAMS)
        coarse = systems.integrate(SystemSpec("lorenz", params, z0, 0.01, 1000))
        fine = systems.integrate(SystemSpec("lorenz", params, z0, 0.005, 2000))
        gap = np.max(np.abs(coarse.states - fine.states[::2]))
        assert gap <= 1e-3

    def test_van_der_pol_amplitude_settles(self):
        spec = SystemSpec("vanderpol", {"mu": 0.3}, (4.0, 4.0), 0.1, 1500)
        traj = systems.integrate(spec)
        x = traj.states[:, 0]
        # peak amplitude per late window varies by well under a percent
        windows = [x[500 + 250 * i: 500 + 250 * (i + 1)] for i in range(4)]
        peaks = np.array([np.max(np.abs(w)) for w in windows])
        assert np.ptp(peaks) / peaks.mean() < 0.01

    def test_van_der_pol_phase_locks_across_starts(self):
        # two starts converge to the same cycle: after the transient, states
        # at matching phase agree closely
        a = systems.integrate(SystemSpec("vanderpol", {"mu": 0.3}, (4.0, 4.0), 0.1, 350)).states
        b = systems.integrate(SystemSpec("vanderpol", {"mu": 0.3}, (0.0, 4.0), 0.1, 350)).states
        pa = np.arctan2(a[150:, 1], a[150:, 0])
        pb = np.arctan2(b[150:, 1], b[150:, 0])
        worst = 0.0
        for i, ph in enumerate(pa):
            diff = np.abs(np.angle(np.exp(1j * (pb - ph))))
            j = int(np.argmin(diff))
            if diff[j] < 0.02:
                worst = max(worst, float(np.linalg.norm(a[150 + i] - b[150 + j])))
        assert 0.0 < worst < 0.05

    def test_blow_up_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="step"):
                systems.integrate_flow(lambda z: (z * z,), np.array([1e200]), 1.0, 5)

    def test_substep_limit_refines(self):
        # a large requested dt is integrated with internal substeps, so the
        # result matches a directly fine-stepped run
        deriv = lambda z: (-z,)
        coarse = systems.integrate_flow(deriv, np.array([1.0]), 0.5, 4)  # substeps kick in
        fine = systems.integrate_flow(deriv, np.array([1.0]), 0.005, 400, max_substep=0.005)
        assert_allclose(coarse[-1], fine[-1], atol=1e-12)


def rk4_reference(deriv, z0, dt, steps, max_substep=systems.MAX_SUBSTEP):
    """The RK4 on numpy arrays that integrate_flow replaced: the same IEEE
    operations in the same order, one array operation per line."""
    nsub = max(1, math.ceil(dt / max_substep))
    h = dt / nsub
    z = np.asarray(z0, dtype=float)
    out = np.empty((steps + 1, z.size))
    out[0] = z
    for i in range(steps):
        for _ in range(nsub):
            k1 = deriv(z)
            k2 = deriv(z + 0.5 * h * k1)
            k3 = deriv(z + 0.5 * h * k2)
            k4 = deriv(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise IntegrationError(f"state became non-finite at step {i + 1}")
        out[i + 1] = z
    return out


def list_flow(deriv, z0, dt, steps, max_substep=systems.MAX_SUBSTEP):
    """integrate_flow as it was before its states went into an array("d")
    and its coordinates into local variables: one Python list per stage
    and per state, each coordinate by the same formula in the same order."""
    nsub = max(1, math.ceil(dt / max_substep))
    h = dt / nsub
    half, sixth = 0.5 * h, h / 6.0
    z = [float(v) for v in z0]
    out = [z]
    for _ in range(steps):
        for _ in range(nsub):
            k1 = deriv(*z)
            k2 = deriv(*[a + half * k for a, k in zip(z, k1)])
            k3 = deriv(*[a + half * k for a, k in zip(z, k2)])
            k4 = deriv(*[a + h * k for a, k in zip(z, k3)])
            z = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(z, k1, k2, k3, k4)]
        out.append(z)
    return np.array(out)


def array_deriv(spec):
    """spec's vector field on a numpy state, as the reference integrates it."""
    if spec.kind == "lorenz":
        sigma, rho, beta = (spec.params[p] for p in ("sigma", "rho", "beta"))

        def deriv(z):
            x, y, w = z
            return np.array([sigma * (y - x), x * (rho - w) - y, x * y - beta * w])

        return deriv
    mu = spec.params["mu"]

    def deriv(z):
        x, y = z
        return np.array([y, mu * (1.0 - x * x) * y - x])

    return deriv


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestRk4Reference:
    @pytest.mark.parametrize("recipe", ["lorenz-pod", "vdp-phase"])
    def test_recipe_starts_are_bitwise_equal(self, recipe):
        specs = cli.load_config(recipe).system.specs
        assert len(specs) == (1 if recipe == "lorenz-pod" else 2)
        for spec in specs:
            got = bits(systems.integrate(spec).states)
            want = rk4_reference(array_deriv(spec), spec.z0, spec.dt, spec.steps)
            assert np.array_equal(got, bits(want))
            deriv = {"lorenz": systems._lorenz_deriv,
                     "vanderpol": systems._vdp_deriv}[spec.kind](**spec.params)
            assert np.array_equal(got, bits(list_flow(deriv, spec.z0, spec.dt, spec.steps)))

    @pytest.mark.parametrize("kind, params, z0, dt, steps", [
        ("lorenz", systems.LORENZ_PARAMS, (1.0, 1.0, 1.0), 0.01, 2000),  # 2 substeps
        ("lorenz", {"sigma": 10, "rho": 28, "beta": 3}, (-3.0, 2.0, 20.0), 0.003, 1000),  # 1
        ("vanderpol", {"mu": systems.VDP_MU}, (4.0, 4.0), 0.1, 500),  # 20 substeps
        ("vanderpol", {"mu": 2.0}, (0.5, -1.0), 0.0125, 800),  # 3 substeps
    ])
    def test_flows_match_the_per_coordinate_reference(self, kind, params, z0, dt, steps):
        spec = SystemSpec(kind, dict(params), z0, dt, steps)
        deriv = {"lorenz": systems._lorenz_deriv,
                 "vanderpol": systems._vdp_deriv}[kind](**spec.params)
        want = list_flow(deriv, spec.z0, spec.dt, spec.steps)
        assert np.array_equal(bits(systems.integrate(spec).states), bits(want))

    def test_one_coordinate_matches_the_reference(self):
        deriv = lambda z: (z - z * z * z,)
        got = systems.integrate_flow(deriv, [0.1], 0.02, 300)
        assert got.shape == (301, 1)
        assert np.array_equal(bits(got), bits(list_flow(deriv, [0.1], 0.02, 300)))

    def test_holds_about_what_the_memory_guard_counts(self):
        # The guard counts 8 (steps+1) d bytes per trajectory; a list of
        # per-step float lists held about 9 times that.
        spec = SystemSpec("lorenz", dict(systems.LORENZ_PARAMS), (1.0, 1.0, 1.0), 0.005, 30_000)
        tracemalloc.start()
        try:
            states = systems.integrate(spec).states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = 8 * (spec.steps + 1) * spec.z0.size
        assert states.shape == (spec.steps + 1, 3)
        assert peak < 2 * counted

    def test_integer_parameters_are_bitwise_equal(self):
        spec = SystemSpec("lorenz", {"sigma": 10, "rho": 28, "beta": 3}, (1.0, 2.0, 3.0), 0.01, 300)
        want = rk4_reference(array_deriv(spec), spec.z0, spec.dt, spec.steps)
        assert np.array_equal(bits(systems.integrate(spec).states), bits(want))

    def test_blow_up_names_the_same_step(self):
        spec = SystemSpec("lorenz", dict(systems.LORENZ_PARAMS), (1e3, 1e3, -1e3), 0.01, 50)
        runs = [(lambda: rk4_reference(lambda z: z * z, [1.0], 0.25, 50),
                 lambda: systems.integrate_flow(lambda z: (z * z,), [1.0], 0.25, 50)),
                (lambda: rk4_reference(array_deriv(spec), spec.z0, spec.dt, spec.steps),
                 lambda: systems.integrate(spec))]
        for reference, run in runs:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationError) as want:
                    reference()
                with pytest.raises(IntegrationError) as got:
                    run()
            assert str(got.value) == str(want.value)
            assert not str(got.value).endswith("step 1")


class TestTransientSkip:
    def test_drops_leading_states(self):
        traj = systems.integrate(SystemSpec("circle", {"omega": 1.0}, (0.0,), 1.0, 10))
        kept = systems.transient_skip(traj, 4)
        assert kept.states.shape == (7, 1)
        assert_allclose(kept.states[0], traj.states[4])

    def test_zero_skip_identity(self):
        traj = systems.integrate(SystemSpec("circle", {"omega": 1.0}, (0.0,), 1.0, 5))
        assert systems.transient_skip(traj, 0) is traj

    def test_skip_too_large(self):
        traj = systems.integrate(SystemSpec("circle", {"omega": 1.0}, (0.0,), 1.0, 5))
        with pytest.raises(ValueError):
            systems.transient_skip(traj, 6)


class TestObservables:
    def _traj(self):
        states = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        return systems.Trajectory(states, 0.5)

    def test_sum_over_many_indices(self):
        # A balanced tree of additions: no recursion limit, exact on integers.
        obs = Observable("sum", indices=[0] * 2000)
        states = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(obs.evaluate(states), 2000 * states[:, 0])
        assert obs.label == "+".join(["z1"] * 2000)

    @pytest.mark.parametrize("terms", [500, systems.MAX_NESTING])
    def test_long_chain_evaluates(self, terms):
        obs = Observable("custom", expression="+".join(["z1"] * terms))
        states = np.array([[1.0], [2.0]])
        assert np.array_equal(obs.evaluate(states), terms * states[:, 0])

    @pytest.mark.parametrize("terms", [systems.MAX_NESTING + 1, 1200, 20_000])
    def test_chain_beyond_the_nesting_limit_is_refused(self, terms):
        obs = Observable("custom", expression="+".join(["z1"] * terms))
        with pytest.raises(ValueError, match=f"nesting limit of {systems.MAX_NESTING} "):
            obs.evaluate(np.array([[1.0]]))

    def test_sum_of_three_adds_left_to_right(self):
        states = np.array([[1.0, 1e16, -1e16]])
        assert Observable("sum", indices=[0, 1, 2]).evaluate(states)[0] == (1.0 + 1e16) - 1e16

    def test_coordinate(self):
        ts = systems.observe(self._traj(), Observable("coordinate", index=1))
        assert_allclose(ts.values, [0.2, 0.4, 0.6])
        assert ts.dt == 0.5
        assert ts.label == "z2"

    def test_sum(self):
        ts = systems.observe(self._traj(), Observable("sum", indices=(0, 1)))
        assert_allclose(ts.values, [0.3, 0.7, 1.1])
        assert ts.label == "z1+z2"

    def test_cos_angle(self):
        ts = systems.observe(self._traj(), Observable("cos_angle", index=0))
        assert_allclose(ts.values, np.cos([0.1, 0.3, 0.5]))
        assert ts.label == "cos_z1"

    def test_kinetic_energy(self):
        # kinetic_energy is no kind: the custom form below says the same.
        with pytest.raises(ValueError, match="^kind: .*'kinetic_energy'"):
            Observable("kinetic_energy")
        ts = systems.observe(self._traj(), Observable("custom", expression="0.5*(z1**2 + z2**2)"))
        assert_allclose(ts.values, 0.5 * np.array([0.05, 0.25, 0.61]))
        assert ts.label == "0.5*(z1**2 + z2**2)"

    def test_custom_expression(self):
        obs = Observable("custom", expression="cos(z1) + 0.6*cos(z2) + 0.3*cos(z1 - z2)")
        ts = systems.observe(self._traj(), obs)
        z1, z2 = self._traj().states.T
        assert_allclose(ts.values, np.cos(z1) + 0.6 * np.cos(z2) + 0.3 * np.cos(z1 - z2))

    def test_custom_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            systems.observe(self._traj(), Observable("custom", expression="__import__('os').getpid()"))

    @pytest.mark.parametrize("expression", [
        "().__class__.__base__.__subclasses__().__len__() + 0*z1",
        "z1.real",
        "z1[0] + z1",
        "(lambda x: x)(z1)",
        "cos(x=z1)",
        "cos(z1, z2)",
        "cos(*[z1])",
        "z1 if z1 else z2",
        "z1 // 2",
        "z3",
        "True * z1",
        "9**9**9 * z1",
        "z1 +",
    ])
    def test_custom_rejects_outside_grammar(self, expression):
        with pytest.raises(ValueError, match="bad observable expression"):
            systems.observe(self._traj(), Observable("custom", expression=expression))

    def test_custom_grammar(self):
        obs = Observable("custom", expression="-sqrt(abs(z1)) + +exp(z2) / 2 - log(1 + z1**2)"
                                              " * tan(sin(pi * z2))")
        ts = systems.observe(self._traj(), obs)
        z1, z2 = self._traj().states.T
        want = -np.sqrt(np.abs(z1)) + +np.exp(z2) / 2 - np.log(1 + z1**2) * np.tan(np.sin(np.pi * z2))
        assert np.array_equal(ts.values, want)

    def test_custom_must_vary_with_samples(self):
        obs = Observable("custom", expression="1.0")
        with pytest.raises(ValueError):
            systems.observe(self._traj(), obs)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"'z6' \(state dimension 2\): 'z6' is not allowed"):
            systems.observe(self._traj(), Observable("coordinate", index=5))

    @pytest.mark.parametrize("kind, key, expression", [
        ("coordinate", "index", "z2"),
        ("sum", "indices", "z1+z2"),
        ("cos_angle", "index", "cos(z2)"),
        ("custom", "expression", "cos(z2)"),
    ])
    def test_kinds_are_expressions(self, kind, key, expression):
        value = {"index": 1, "indices": [0, 1], "expression": "cos(z2)"}[key]
        obs = Observable(kind, **{key: value})
        assert obs._formula == expression
        want = Observable("custom", expression=expression).evaluate(self._traj().states)
        assert np.array_equal(obs.evaluate(self._traj().states), want)

    def test_index_defaults_to_the_first_coordinate(self):
        assert Observable("coordinate") == Observable("coordinate", index=0)
        assert Observable("cos_angle").label == "cos_z1"

    @pytest.mark.parametrize("kind, key, value", [
        ("coordinate", "expression", "cos(z2)"),
        ("coordinate", "indices", [1]),
        ("sum", "index", 0),
        ("cos_angle", "expression", "z1"),
        ("custom", "index", 0),
        ("custom", "indices", [0]),
    ])
    def test_key_that_the_kind_does_not_read(self, kind, key, value):
        given = {"indices": [0]} if kind == "sum" else {"expression": "z1"} if kind == "custom" else {}
        with pytest.raises(ValueError, match=f"^{key}: the {kind} kind reads only"):
            Observable(kind, **given, **{key: value})

    @pytest.mark.parametrize("index", [-1, True, 1.0])
    def test_index_is_an_integer_from_zero(self, index):
        with pytest.raises(ValueError, match="^index:"):
            Observable("coordinate", index=index)

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\u2028b"])
    def test_label_with_comma_or_line_break(self, label):
        with pytest.raises(ValueError, match="^label:"):
            Observable("coordinate", label=label)

    def test_default_label_folds_line_breaks(self):
        obs = Observable("custom", expression="(cos(z1)\n+ 1,\r)")
        assert obs.label == "(cos(z1);+ 1;;)"
        ts = systems.observe(self._traj(), Observable("custom", expression="(cos(z1)\n+ 1)"))
        assert ts.label == "(cos(z1);+ 1)"
        assert np.array_equal(ts.values, np.cos(self._traj().states[:, 0]) + 1)

    def test_non_finite_sample_is_named_without_a_warning(self):
        obs = Observable("custom", expression="log(z1 - 0.2)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(obs.evaluate(self._traj().states)[0])
            with pytest.raises(ValueError, match="^'log\\(z1 - 0.2\\)' is not finite at sample 0$"):
                systems.observe(self._traj(), obs)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Observable("norm")


class TestSeededSystems:
    def test_lorenz_initial_state_reproducible(self):
        a = systems.lorenz_initial_state(3)
        b = systems.lorenz_initial_state(3)
        c = systems.lorenz_initial_state(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(a - np.ones(3)) < 1.0  # small jitter around (1,1,1)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_linear_system_properties(self, seed):
        spec = dataclasses.replace(systems.seeded_linear_system(seed, dim=4), steps=8)
        a = np.asarray(spec.params["matrix"])
        assert a.shape == (4, 4)
        evals = np.linalg.eigvals(a)
        assert_allclose(np.max(np.abs(evals)), 0.95, atol=1e-10)
        pair = np.abs(evals[:, None] - evals[None, :])
        np.fill_diagonal(pair, np.inf)
        assert pair.min() >= 0.05
        # the generating trajectory iterates the map
        traj = systems.integrate(spec)
        assert traj.states.shape == (9, 4)
        assert_allclose(traj.states[1:], (a @ traj.states[:-1].T).T, atol=1e-12)
        krylov = np.column_stack(
            [np.linalg.matrix_power(a, k) @ traj.states[0] for k in range(4)]
        )
        assert np.linalg.cond(krylov) <= 1e6

    def test_seeded_linear_system_eig_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(DecompositionError, match="seeded linear system 3"):
            systems.seeded_linear_system(3)

    def test_seeded_linear_system_reproducible(self):
        s1 = systems.seeded_linear_system(5, dim=4)
        s2 = systems.seeded_linear_system(5, dim=4)
        assert np.array_equal(s1.params["matrix"], s2.params["matrix"])
        assert np.array_equal(s1.z0, s2.z0)
