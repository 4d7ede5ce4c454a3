import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kallele import (
    FrequencyParseError,
    Homozygosity,
    MutationParams,
    SelectionModel,
    SimplexPoint,
    homozygosity,
    parse_frequencies,
    quadratic_form,
)
from kallele.core import _dirichlet, derive_rng, load_dataset


def simplex_points(min_k=2, max_k=8):
    return (
        st.lists(st.floats(0.01, 10.0), min_size=min_k, max_size=max_k)
        .map(lambda vals: SimplexPoint([v / math.fsum(vals) for v in vals], sum_tol=1e-6))
    )


class TestSimplexPoint:
    def test_valid(self):
        p = SimplexPoint((0.2, 0.3, 0.5))
        assert p.k == 3
        assert p.values == (0.2, 0.3, 0.5)

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            SimplexPoint((1.0,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="non-positive"):
            SimplexPoint((0.0, 1.0))
        with pytest.raises(ValueError, match="non-positive"):
            SimplexPoint((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="deviating"):
            SimplexPoint((0.5, 0.6))

    def test_sum_tolerance_split(self):
        # 1e-9 internally, 5e-3 for ingested data.
        vals = (0.5, 0.501)
        with pytest.raises(ValueError):
            SimplexPoint(vals)
        assert SimplexPoint(vals, sum_tol=5e-3).k == 2

    def test_immutable(self):
        p = SimplexPoint((0.4, 0.6))
        with pytest.raises(AttributeError):
            p.values = (0.5, 0.5)


class TestHomozygosity:
    def test_lyme_value(self):
        p = parse_frequencies("lyme")
        assert homozygosity(p).value == pytest.approx(0.288, abs=5e-4)

    def test_kir_value(self):
        p = parse_frequencies("kir")
        assert homozygosity(p).value == pytest.approx(0.172, abs=5e-4)

    def test_uniform_is_floor(self):
        p = SimplexPoint((0.25,) * 4)
        assert homozygosity(p).value == 0.25

    @given(simplex_points())
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, p):
        h = homozygosity(p)
        assert 1.0 / p.k - 1e-12 <= h.value <= 1.0

    def test_type_invariant(self):
        with pytest.raises(ValueError):
            Homozygosity(value=0.2, k=4)  # below 1/k
        with pytest.raises(ValueError):
            Homozygosity(value=1.1, k=4)


class TestQuadraticForm:
    def test_scalar_model_uniform(self):
        p = SimplexPoint((0.25,) * 4)
        assert quadratic_form(p, SelectionModel.overdominance(35.1)) == pytest.approx(8.775)

    def test_zero_matrix(self):
        p = SimplexPoint((0.3, 0.7))
        m = SelectionModel.from_matrix([[0.0, 0.0], [0.0, 0.0]])
        assert quadratic_form(p, m) == 0.0

    def test_hand_expanded_2x2(self):
        p = SimplexPoint((0.3, 0.7))
        m = SelectionModel.from_matrix([[2.0, 1.0], [1.0, 4.0]])
        assert quadratic_form(p, m) == pytest.approx(2.56, abs=1e-12)

    @given(simplex_points(), st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_scalar_equals_sigma_times_h(self, p, sigma):
        model = SelectionModel.overdominance(sigma)
        expected = sigma * homozygosity(p).value
        assert quadratic_form(p, model) == pytest.approx(expected, abs=1e-12)

    @given(simplex_points(min_k=3, max_k=5), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, p, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(p.k, p.k))
        m = m + m.T
        perm = rng.permutation(p.k)
        model = SelectionModel.from_matrix(m)
        permuted = SelectionModel.from_matrix(m[np.ix_(perm, perm)])
        p2 = SimplexPoint(tuple(np.asarray(p.values)[perm]), sum_tol=1e-6)
        assert quadratic_form(p, model) == pytest.approx(quadratic_form(p2, permuted), rel=1e-12)

    def test_dimension_mismatch(self):
        p = SimplexPoint((0.3, 0.7))
        m = SelectionModel.from_matrix(np.eye(3))
        with pytest.raises(ValueError, match="k=2"):
            quadratic_form(p, m)


class TestSelectionModel:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            SelectionModel.from_matrix([[1.0, 2.0], [2.1, 1.0]])

    def test_scalar_expands_to_diagonal(self):
        m = SelectionModel.overdominance(3.0).matrix_array(4)
        assert np.allclose(m, 3.0 * np.eye(4))


class TestMutationParams:
    def test_symmetric_expansion(self):
        t = MutationParams.symmetric(4.8, 4)
        assert t.thetas == (1.2,) * 4
        assert t.total == 4.8

    def test_general(self):
        t = MutationParams.general([1.0, 2.0, 3.0])
        assert t.k == 3
        assert t.total == pytest.approx(6.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MutationParams.symmetric(-1.0, 4)
        with pytest.raises(ValueError):
            MutationParams.general([1.0, 0.0])


class TestParseFrequencies:
    def test_bundled_lyme(self):
        assert parse_frequencies("lyme").values == (0.103, 0.375, 0.270, 0.252)

    def test_bundled_kir(self):
        p = parse_frequencies("kir")
        assert p.k == 8
        assert p.values[0] == 0.22

    def test_simple_pair(self):
        assert parse_frequencies("0.5, 0.5").values == (0.5, 0.5)

    def test_whitespace_separated(self):
        assert parse_frequencies("0.25 0.25\t0.25 0.25").k == 4

    def test_sum_violation(self):
        with pytest.raises(FrequencyParseError, match="0.1"):
            parse_frequencies("0.5, 0.6")

    def test_non_numeric(self):
        with pytest.raises(FrequencyParseError, match="token 1"):
            parse_frequencies("0.5, abc")

    def test_too_few(self):
        with pytest.raises(FrequencyParseError, match="at least 2"):
            parse_frequencies("1.0")

    def test_nonpositive_points_at_allele(self):
        with pytest.raises(FrequencyParseError, match="allele 2"):
            parse_frequencies("0.5, 0.5, 0.0")

    def test_small_deviation_not_renormalized(self):
        p = parse_frequencies("0.5, 0.503")
        assert p.values == (0.5, 0.503)  # accepted but untouched


class TestLoadDataset:
    def test_text_file(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("# toy\n\n0.2, 0.3, 0.5\n")
        label, p = load_dataset(str(f))
        assert label == "line3"
        assert p.values == (0.2, 0.3, 0.5)

    @pytest.mark.parametrize("text, count", [("0.5, 0.5\n0.2, 0.3, 0.5\n", 2), ("# nothing\n\n", 0)])
    def test_text_file_needs_one_dataset(self, tmp_path, text, count):
        f = tmp_path / "data.txt"
        f.write_text(text)
        with pytest.raises(FrequencyParseError, match=f"found {count}"):
            load_dataset(str(f))

    def test_json_file(self, tmp_path):
        f = tmp_path / "data.json"
        f.write_text('{"k": 2, "frequencies": [0.4, 0.6], "label": "toy"}')
        label, p = load_dataset(str(f))
        assert label == "toy"
        assert p.values == (0.4, 0.6)

    def test_json_k_mismatch(self, tmp_path):
        f = tmp_path / "data.json"
        f.write_text('{"k": 3, "frequencies": [0.4, 0.6]}')
        with pytest.raises(FrequencyParseError, match="k=3"):
            load_dataset(str(f))

    def test_missing_file(self):
        with pytest.raises(FrequencyParseError):
            load_dataset("/nonexistent/path.txt")


class TestDirichlet:
    @pytest.mark.parametrize("a, k", [(0.0025, 4), (0.0005, 2), (0.01, 8)])
    def test_rows_interior_at_tiny_concentration(self, a, k):
        # About a sixth of Gamma(0.0025) variates underflow to 0, and rows
        # whose every coordinate underflows are 0/0 = NaN.
        x = _dirichlet(np.full(k, a), 5000, derive_rng(3, 1))
        assert x.shape == (5000, k)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        assert np.all(np.abs(x.sum(axis=1) - 1.0) <= 1e-12)

    def test_per_row_concentrations(self):
        al = np.full((3000, 4), 0.0025)
        al[np.arange(3000), np.arange(3000) % 4] += 2.0
        x = _dirichlet(al, 3000, derive_rng(3, 2))
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)

    def test_same_stream_as_one_gamma_call(self):
        al = np.tile([0.7, 1.3, 2.0], (500, 1))
        g = derive_rng(5, 1).gamma(al)
        assert np.array_equal(_dirichlet(al, 500, derive_rng(5, 1)), g / g.sum(axis=1, keepdims=True))
        assert np.array_equal(_dirichlet(al[0], 500, derive_rng(5, 1)), g / g.sum(axis=1, keepdims=True))
        # A row of equal concentrations is drawn with a scalar shape: same stream.
        g = derive_rng(5, 1).gamma(np.full(3, 0.7), size=(500, 3))
        assert np.array_equal(_dirichlet(np.full(3, 0.7), 500, derive_rng(5, 1)), g / g.sum(axis=1, keepdims=True))

    def test_too_small_concentration_is_value_error(self):
        with pytest.raises(ValueError, match="concentration 0.0005"):
            _dirichlet(np.full(20, 0.0005), 100, derive_rng(1, 1))
