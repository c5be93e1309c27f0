import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wigcheck.klm as klm
from conftest import oracle_min
from wigcheck import (AxisGrid, SymplecticFourier, as_dict, covariance_from_grid,
                      default_axis, fock_state, klm_check, klm_matrix, mixture_wigner,
                      rescale, trace, truncated_bump_grid,
                      wigner_gaussian, wigner_of_pure, witness_quadratic_form)
from wigcheck.states import WignerGrid


def test_order_one_is_the_trace(vacuum_wigner):
    f = SymplecticFourier(vacuum_wigner)
    mat = klm_matrix(f, np.zeros((1, 2)))
    assert mat.shape == (1, 1)
    assert mat[0, 0].real == pytest.approx(trace(vacuum_wigner), abs=1e-12)
    assert mat[0, 0].real == pytest.approx(1.0, abs=1e-6)


def test_vacuum_two_point_analytic(vacuum_wigner):
    f = SymplecticFourier(vacuum_wigner)
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    mat = klm_matrix(f, pts, hbar=1.0)
    assert np.abs(np.diag(mat) - 1.0).max() <= 1e-4
    assert abs(mat[0, 1]) == pytest.approx(np.exp(-0.25), abs=1e-4)
    eigs = np.linalg.eigvalsh(mat)
    assert eigs == pytest.approx([1 - np.exp(-0.25), 1 + np.exp(-0.25)], abs=1e-4)
    assert eigs.min() >= 0


def test_matrix_hermitian_on_random_points(vacuum_wigner):
    f = SymplecticFourier(vacuum_wigner)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pts = rng.normal(size=(6, 2))
        m = pts.shape[0]
        diffs = pts[:, None, :] - pts[None, :, :]
        fv = f(diffs.reshape(-1, 2)).reshape(m, m)
        sig = np.outer(pts[:, 1], pts[:, 0]) - np.outer(pts[:, 0], pts[:, 1])
        raw = np.exp(0.5j * sig) * fv
        assert np.abs(raw - raw.conj().T).max() <= 1e-10


def test_pair_indices_are_one_read_only_table_per_order():
    # every call of an order shares the table, so none may write into it
    j, k = klm._pairs(4)
    assert klm._pairs(4)[0] is j and not (j.flags.writeable or k.flags.writeable)
    assert np.array_equal([j, k], np.triu_indices(4, 1))


def test_vacuum_passes_through_order_five(vacuum_wigner):
    report = klm_check(vacuum_wigner, seed=0)
    assert report.overall == "no_violation_found"
    # the fixed budget: 50 point sets of each order 1 to 5
    assert (report.max_order, report.trials_per_order) == (5, 50)
    assert [(rec.order, rec.trials) for rec in report.orders] == [(m, 50) for m in range(1, 6)]
    assert all(rec.worst_min_eigenvalue >= -1e-8 for rec in report.orders)


def test_fock1_passes_through_order_five(fock1_wigner):
    report = klm_check(fock1_wigner, seed=1)
    assert report.overall == "no_violation_found"
    assert all(rec.worst_min_eigenvalue >= -1e-8 for rec in report.orders)


def test_rescaled_vacuum_violation_low_order(vacuum_wigner):
    report = klm_check(rescale(vacuum_wigner, 1.5), seed=0)
    assert report.overall == "violation_certificate"
    assert report.witness.order <= 3


@pytest.mark.parametrize("lam", [1.2, 1.5, 2.0])
def test_rescaled_gaussian_violations_within_budget(vacuum_wigner, lam):
    # canonical-criterion failures must be caught by the finite search
    report = klm_check(rescale(vacuum_wigner, lam), seed=0)
    assert report.overall == "violation_certificate"


def test_rescaled_fock1_violation_matches_oracle(fock1_wigner):
    w = rescale(fock1_wigner, 1.2)
    report = klm_check(w, seed=3)
    assert report.overall == "violation_certificate"
    assert oracle_min(w) < -1e-3


def test_witness_reproducible(vacuum_wigner):
    w = rescale(vacuum_wigner, 1.5)
    report = klm_check(w, seed=0)
    value = witness_quadratic_form(w, report.witness)
    assert value == pytest.approx(report.witness.min_eigenvalue, abs=1e-9)
    assert value < -report.tol


def test_principal_submatrix_of_psd_is_psd(vacuum_wigner):
    f = SymplecticFourier(vacuum_wigner)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 2))
    mat = klm_matrix(f, pts, hbar=1.0)
    assert np.linalg.eigvalsh(mat).min() >= -1e-8
    for drop in range(5):
        keep = [i for i in range(5) if i != drop]
        sub = mat[np.ix_(keep, keep)]
        assert np.linalg.eigvalsh(sub).min() >= -1e-8


def test_check_requires_unit_trace(vacuum_wigner):
    bad = WignerGrid(vacuum_wigner.x_axis, vacuum_wigner.p_axis,
                     2.0 * vacuum_wigner.values, vacuum_wigner.hbar)
    # the one error line names the trace it found
    with pytest.raises(ValueError, match="unit trace for the positivity search, found 2; "):
        klm_check(bad)


def test_report_serializes(vacuum_wigner):
    report = klm_check(rescale(vacuum_wigner, 1.5), seed=0)
    d = as_dict(report)
    assert d["overall"] == "violation_certificate"
    assert d["witness"]["order"] == len(d["witness"]["points"])
    assert d["seed"] == 0 and d["phase_sign"] == 1


def test_stacked_matrices_match_single_sets(fock1_wigner, odd_offcentre_grid):
    rng = np.random.default_rng(2)
    for w in (fock1_wigner, odd_offcentre_grid):
        f = SymplecticFourier(w)
        for order in range(2, 6):
            pts = rng.normal(size=(60, order, 2))
            stacked = klm_matrix(f, pts)
            assert stacked.shape == (60, order, order)
            for one, mat in zip(pts, stacked):
                assert np.array_equal(klm_matrix(f, one), mat)
                assert np.array_equal(mat, mat.conj().T)
        # the search's lattice table reuses a transform value from another call: a point
        # has the same bits alone, in a block of random differences and in a lattice block
        lattice = (rng.uniform(0.3, 3.5, size=(25, 1, 1)) * klm._STEPS).reshape(-1, 2)
        in_lattice = f(lattice)
        in_random = f(np.concatenate([rng.normal(size=(40, 2)), lattice[::7]]))[40:]
        assert np.array_equal(_bits(in_random), _bits(in_lattice[::7]))
        for z, value in zip(lattice, in_lattice):
            assert np.array_equal(_bits(f(z[None])), _bits([value]))


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def _full_matrix(fsw, pts, hbar):
    """Sample matrix from the transform at all m^2 differences, symmetrized."""
    m = pts.shape[0]
    fvals = fsw((pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)).reshape(m, m)
    sig = np.outer(pts[:, 1], pts[:, 0]) - np.outer(pts[:, 0], pts[:, 1])
    mat = np.exp(0.5j * hbar * sig) * fvals
    return 0.5 * (mat + mat.conj().T)


MASK = 2**64 - 1


def _scalar_uniform(seed, order, draw):
    """One draw of the point-set generator in Python integers, reduced mod 2**64
    by hand: SplitMix64 output order * 2**32 + draw + 1 of `seed`, top 53 bits."""
    z = (seed + ((order << 32) + draw + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _scalar_point_set(seed, order, trial, trials, chol, base_scale):
    """One trial's point set and strategy from scalar draws.  The float functions
    run on small arrays, as in the batch: on a numpy scalar `**` calls another
    pow, which can round differently."""
    if trial % 2:
        return base_scale * (0.3 + 3.2 * (trial / trials)) * klm._LATTICE[:order], "lattice"
    u = np.array([_scalar_uniform(seed, order, trial * (2 * order + 1) + k)
                  for k in range(2 * order + 1)])
    r = np.sqrt(-2.0 * np.log(1.0 - u[1:order + 1, None])) * (0.5 * 6.0 ** u[:1, None])
    angle = 2.0 * np.pi * u[order + 1:, None]
    return r * np.cos(angle) * chol[:, 0] + r * np.sin(angle) * chol[:, 1], "random"


@pytest.mark.parametrize("seed", [0, 5, 2**63, MASK])
def test_point_sets_are_the_scalar_draws_bit_for_bit(seed):
    chol = np.linalg.cholesky(np.array([[1.3, 0.4], [0.4, 0.7]]))
    for order in range(1, klm.MAX_ORDER + 1):
        for trials in (1, 7, 50):
            pts = klm._point_sets(seed, order, trials, chol, 1.7)
            assert pts.shape == (trials, order, 2)
            for trial in range(trials):
                one, _ = _scalar_point_set(seed, order, trial, trials, chol, 1.7)
                assert np.array_equal(pts[trial], one)


def test_uniforms_are_reproducible_53_bit_fractions_of_the_unit_interval():
    draws = np.arange(10**5, dtype=np.uint64)
    for seed in (0, MASK):
        u = klm._uniforms(seed, 3, draws)
        assert np.array_equal(u, klm._uniforms(seed, 3, draws))
        assert 0.0 <= u.min() and u.max() < 1.0
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
        assert [u[k] for k in (0, 1, 10**5 - 1)] == [_scalar_uniform(seed, 3, k)
                                                     for k in (0, 1, 10**5 - 1)]


def test_normals_have_zero_mean_and_unit_variance():
    # 10**4 clouds of 5 points: 10**5 normals, each divided by its cloud's factor
    trials = 2 * 10**4
    pts = klm._point_sets(11, 5, trials, np.eye(2), 1.0)[::2]
    first = np.arange(0, trials, 2, dtype=np.uint64) * np.uint64(2 * 5 + 1)
    z = (pts / (0.5 * 6.0 ** klm._uniforms(11, 5, first))[:, None, None]).ravel()
    assert z.size == 10**5
    assert abs(z.mean()) < 5 * np.sqrt(1 / z.size)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / z.size)


def test_each_seed_and_order_has_its_own_stream():
    draws = np.arange(64, dtype=np.uint64)
    values = np.concatenate([klm._uniforms(seed, order, draws)
                             for seed in (0, 1, 2, 2**32, 2**63, MASK)
                             for order in range(1, klm.MAX_ORDER + 1)])
    assert np.unique(values).size == values.size


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, MASK), st.integers(1, klm.MAX_ORDER))
def test_generator_warns_for_no_seed(seed, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        klm._point_sets(seed, order, 9, np.eye(2), 1.0)


def test_default_search_detection_over_seeds(vacuum_wigner, fock1_wigner, mixture_5050):
    # the benchmark battery's grids at 256^2 plus the sub-vacuum Gaussian: every
    # non-state has a witness and no state has one, on each of seeds 0-9
    axis = default_axis()
    non_states = {"fock1_x1.2": rescale(fock1_wigner, 1.2),
                  "vacuum_x1.5": rescale(vacuum_wigner, 1.5),
                  "bump": truncated_bump_grid(axis, axis),
                  "gaussian_0.4": wigner_gaussian([0, 0], 0.4 * np.eye(2), axis, axis)}
    states = {"vacuum": vacuum_wigner, "fock01_mixture": mixture_5050,
              "squeezed": wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis)}
    for seed in range(10):
        for name, w in {**non_states, **states}.items():
            found = klm_check(w, seed=seed).witness is not None
            assert found == (name in non_states), (name, seed)


def _search_frame(w):
    """The Cholesky factor of the random point sets and the lattice's base scale."""
    cov = covariance_from_grid(w).sigma
    if np.linalg.eigvalsh(cov).min() > 0:
        chol = np.linalg.cholesky(cov)
    else:
        chol = np.sqrt(w.hbar / 2) * np.eye(2)
    return chol, float(np.sqrt(2.0 * max(np.trace(cov) / 2.0, w.hbar / 4)))


def _reference_search(w, seed):
    """One point set at a time, each drawn by scalar draws and each matrix
    built from all m^2 differences."""
    trials = klm.TRIALS_PER_ORDER
    fsw = SymplecticFourier(w)
    chol, base_scale = _search_frame(w)
    orders = []
    for order in range(1, klm.MAX_ORDER + 1):
        worst = np.inf
        for trial in range(trials):
            pts, strategy = _scalar_point_set(seed, order, trial, trials, chol, base_scale)
            vals, vecs = np.linalg.eigh(_full_matrix(fsw, pts, w.hbar))
            worst = min(worst, vals[0])
            if vals[0] < -klm.TOL:
                orders.append((order, trial + 1, worst))
                return orders, (order, trial, strategy, pts, vals[0], vecs[:, 0])
        orders.append((order, trials, worst))
    return orders, None


@pytest.mark.parametrize("name", ["vacuum", "fock1", "fock1_x1.2", "vacuum_x1.5", "bump"])
@pytest.mark.parametrize("seed", [0, 7, 31])
def test_batched_search_matches_one_set_at_a_time(vacuum_wigner, fock1_wigner, name, seed):
    w = {"vacuum": vacuum_wigner, "fock1": fock1_wigner,
         "fock1_x1.2": rescale(fock1_wigner, 1.2), "vacuum_x1.5": rescale(vacuum_wigner, 1.5),
         "bump": truncated_bump_grid(default_axis(), default_axis())}[name]
    report = klm_check(w, seed=seed)
    orders, found = _reference_search(w, seed)
    assert [(r.order, r.trials) for r in report.orders] == [o[:2] for o in orders]
    for rec, (_, _, worst) in zip(report.orders, orders):
        assert abs(rec.worst_min_eigenvalue - worst) <= 1e-12
    assert (report.overall == "violation_certificate") == (found is not None)
    if found is not None:
        wit = report.witness
        order, trial, strategy, pts, value, vec = found
        assert (wit.order, wit.trial, wit.strategy) == (order, trial, strategy)
        assert np.array_equal(wit.points, pts)
        assert abs(wit.min_eigenvalue - value) <= 1e-12
        assert abs(abs(np.vdot(vec, wit.eigenvector)) - 1.0) <= 1e-9
        assert type(wit.trial) is int
    json.dumps(as_dict(report), allow_nan=False)


def _plain_search(w, seed):
    """The search as one `klm_matrix` over all point sets of each order, one
    `np.linalg.eigh`, and the first trial below -TOL."""
    trials, fsw = klm.TRIALS_PER_ORDER, SymplecticFourier(w)
    chol, base_scale = _search_frame(w)
    orders = []
    for order in range(1, klm.MAX_ORDER + 1):
        pts = klm._point_sets(seed, order, trials, chol, base_scale)
        vals, vecs = np.linalg.eigh(klm_matrix(fsw, pts, w.hbar))
        low = vals[:, 0]
        bad = np.flatnonzero(low < -klm.TOL)
        if bad.size:
            t = int(bad[0])
            orders.append(klm.KLMOrderRecord(order, t + 1, float(low[:t + 1].min())))
            witness = klm.KLMWitness(order, pts[t], vecs[t, :, 0], float(low[t]), t,
                                     "lattice" if t % 2 else "random")
            return klm.KLMReport("violation_certificate", orders, witness, seed)
        orders.append(klm.KLMOrderRecord(order, trials, float(low.min())))
    return klm.KLMReport("no_violation_found", orders, None, seed)


@pytest.fixture(scope="module")
def battery_grids(vacuum_wigner, fock1_wigner, mixture_5050, odd_offcentre_grid):
    axis = default_axis()
    return {"vacuum": vacuum_wigner, "fock01_mixture": mixture_5050,
            "squeezed": wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis),
            "fock1_x1.2": rescale(fock1_wigner, 1.2), "bump": truncated_bump_grid(axis, axis),
            "vacuum_x1.5": rescale(vacuum_wigner, 1.5), "odd_offcentre": odd_offcentre_grid}


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_search_report_is_the_plain_search_text(battery_grids, seed):
    # the lattice table, order 1 as the trace and the blocks change no byte of the report
    for name, w in battery_grids.items():
        text = json.dumps(as_dict(klm_check(w, seed=seed)))
        assert text == json.dumps(as_dict(_plain_search(w, seed))), name


@pytest.mark.parametrize("work", [1, 13 * 256, 10**9], ids=["one-trial", "13-points", "one-block"])
def test_block_size_changes_no_byte(battery_grids, monkeypatch, work):
    monkeypatch.setattr(klm, "_BLOCK_WORK", work)
    for name in ("vacuum", "fock1_x1.2", "vacuum_x1.5"):
        w = battery_grids[name]
        assert json.dumps(as_dict(klm_check(w, seed=7))) == json.dumps(as_dict(_plain_search(w, 7)))


def _transformed_points(monkeypatch):
    """A list that collects the points of every SymplecticFourier call, one array a call."""
    calls, call = [], SymplecticFourier.__call__
    monkeypatch.setattr(SymplecticFourier, "__call__",
                        lambda self, z: calls.append(np.reshape(z, (-1, 2))) or call(self, z))
    return calls


def test_state_search_transforms_675_points(vacuum_wigner, monkeypatch):
    # order 1 is the trace; a lattice trial transforms each of its 7 steps once:
    # 25 random sets of 1 + 3 + 6 + 10 differences and 25 lattice sets of 7 steps
    calls = _transformed_points(monkeypatch)
    assert klm_check(vacuum_wigner, seed=0).witness is None
    assert sum(map(len, calls)) == 25 * 20 + 25 * 7 == 675
    assert min(map(len, calls)) > 0


def test_search_stopped_at_order_three_transforms_no_later_step(vacuum_wigner, monkeypatch):
    w = rescale(vacuum_wigner, 1.5)
    calls = _transformed_points(monkeypatch)
    assert klm_check(w, seed=0).witness.order == 3
    _, base_scale = _search_frame(w)
    trials = klm.TRIALS_PER_ORDER
    scales = [base_scale * (0.3 + 3.2 * (t / trials)) for t in range(1, trials, 2)]
    seen = {tuple(z) for z in np.concatenate(calls)}
    lattice = {step: sum(tuple(s * np.array(step)) in seen for s in scales)
               for step in map(tuple, klm._STEPS)}
    early = {(-1.0, 0.0), (0.0, -1.0), (1.0, -1.0)}  # the steps of orders 2 and 3
    assert all(n == 0 for step, n in lattice.items() if step not in early)
    assert lattice[(-1.0, 0.0)] == len(scales)  # order 2's step, transformed once per trial
    assert len(klm._STEPS) == 7


@pytest.mark.parametrize("cov, hbar", [([[1.3, 0.4], [0.4, 0.7]], 1.0),
                                       ([[0.5, 0], [0, 0.5]], 1.0),
                                       ([[3e-9, 1e-9], [1e-9, 2e-9]], 1e-8),
                                       ([[7e11, 0], [0, 0.3]], 2.0),
                                       ([[1e-300, 0], [0, 1e-300]], 1e-299)])
def test_lattice_differences_are_scale_times_step_bit_for_bit(cov, hbar):
    # the table the search keeps rests on this: pts[t, j] - pts[t, k] = scale_t (L_j - L_k)
    cov = np.array(cov)
    base_scale = float(np.sqrt(2.0 * max(np.trace(cov) / 2.0, hbar / 4)))
    trials = klm.TRIALS_PER_ORDER
    scale = (base_scale * (0.3 + 3.2 * (np.arange(trials) / trials)))[1::2, None, None]
    for order in range(2, klm.MAX_ORDER + 1):
        pts = klm._point_sets(5, order, trials, np.linalg.cholesky(cov), base_scale)[1::2]
        j, k = klm._pairs(order)
        diff = pts[:, j] - pts[:, k]
        # the steps come in the order a lattice set gains them: order m uses the first few
        assert set(klm._STEP_OF[j, k]) == set(range(klm._STEP_OF[j, k].max() + 1))
        for step in (klm._LATTICE[j] - klm._LATTICE[k], klm._STEPS[klm._STEP_OF[j, k]]):
            assert np.array_equal(diff, scale * step)
            assert np.array_equal(np.signbit(diff), np.signbit(scale * step))


def test_opposite_phase_sign_is_time_reversal(monkeypatch):
    # F with sign -1 on W at points (x, p) equals F with sign +1 on the
    # time-reversed grid W(x, -p) at points (-x, p); time reversal maps states
    # to states, so no grid can single out either sign.
    axis = AxisGrid(-8.0, 8.0, 513)
    c, s = np.cos(0.6), np.sin(0.6)
    rot = np.array([[c, -s], [s, c]])
    w = wigner_gaussian([0.7, -0.4], rot @ np.diag([1.8, 0.2]) @ rot.T, axis, axis)
    reversed_w = WignerGrid(axis, axis, w.values[:, ::-1], w.hbar)
    pts = np.random.default_rng(0).normal(size=(20, 4, 2))
    plus = klm_matrix(SymplecticFourier(reversed_w), pts * [-1.0, 1.0])
    monkeypatch.setattr(klm, "PHASE_SIGN", -1)
    minus = klm_matrix(SymplecticFourier(w), pts)
    assert np.abs(plus - minus).max() <= 1e-13


@pytest.fixture(scope="module")
def fock_128():
    axis = default_axis(count=128, extent=9.0)
    return [fock_state(n, axis) for n in range(4)]


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       st.integers(0, 2**16))
def test_fock_mixtures_have_no_witness(fock_128, weights, seed):
    weights = np.array(weights) / np.sum(weights)
    w = mixture_wigner(list(zip(weights, fock_128)))
    assert klm_check(w, seed=seed).witness is None


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.sampled_from([0, 1]), st.floats(1.2, 2.0), st.integers(0, 2**16))
def test_rescaled_witnesses_reproduce(fock_128, n, lam, seed):
    w = rescale(wigner_of_pure(fock_128[n]), lam)
    report = klm_check(w, seed=seed)
    assert report.witness is not None
    value = witness_quadratic_form(w, report.witness)
    assert value == pytest.approx(report.witness.min_eigenvalue, abs=1e-9)


def test_unreproduced_witness_is_an_error(vacuum_wigner, monkeypatch):
    monkeypatch.setattr(klm, "witness_quadratic_form", lambda w, witness, fsw=None: 0.0)
    with pytest.raises(ValueError, match="does not reproduce"):
        klm_check(rescale(vacuum_wigner, 1.5), seed=0)


@pytest.mark.parametrize("offset", [1e-3, 1e-7], ids=["1e-3", "1e-7"])
def test_recheck_catches_an_error_of_the_search_transform(vacuum_wigner, monkeypatch, offset):
    # the re-check's unfolded sum shares no code with SymplecticFourier, so a
    # transform that is off by 1e-3 finds a witness the re-check refuses; the
    # round-off bound is tight enough at this scale to refuse an offset of 1e-7 too
    call = SymplecticFourier.__call__
    monkeypatch.setattr(SymplecticFourier, "__call__", lambda self, z: call(self, z) + offset)
    with pytest.raises(ValueError, match="does not reproduce"):
        klm_check(rescale(vacuum_wigner, 1.5), seed=0)


def test_recheck_matches_the_folded_transform(odd_offcentre_grid):
    # on a non-state grid with an odd count and off-centre axes the two
    # quadratures agree far inside the re-check's bound
    w = rescale(odd_offcentre_grid, 1.4)
    report = klm_check(w, seed=0)
    assert report.witness is not None
    value = witness_quadratic_form(w, report.witness)
    assert abs(value - report.witness.min_eigenvalue) <= 1e-12
