import numpy as np
import pytest

from fairprop.debias import row_softmax
from fairprop.graph import incident_vector
from fairprop.metrics import (
    accuracy,
    demographic_parity,
    equal_opportunity,
    predict_labels,
)


def full(n):
    return np.ones(n, dtype=bool)


class TestAccuracy:
    def test_values(self):
        assert accuracy([1, 0, 1], [1, 0, 1], full(3)) == 1.0
        assert accuracy([0, 1, 0], [1, 0, 1], full(3)) == 0.0
        assert accuracy([1, 0, 1, 1], [1, 0, 1, 0], full(4)) == 0.75

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            accuracy([1], [1], [False])


class TestDemographicParity:
    def test_equal_rates(self):
        assert demographic_parity([1, 0, 1, 0], [1, 1, -1, -1], full(4)) == 0.0

    def test_half_gap(self):
        assert demographic_parity([1, 1, 1, 0], [1, 1, -1, -1], full(4)) == 0.5

    def test_constant_predictions(self):
        assert demographic_parity([1, 1, 1, 1], [1, 1, -1, -1], full(4)) == 0.0

    def test_empty_group(self):
        with pytest.raises(ValueError):
            demographic_parity([1, 0], [1, 1], full(2))


class TestEqualOpportunity:
    def test_perfect_classifier(self):
        assert equal_opportunity([1, 1, 0, 0], [1, 1, 0, 0], [1, -1, 1, -1], full(4)) == 0.0

    def test_full_gap(self):
        assert equal_opportunity([1, 0], [1, 1], [1, -1], full(2)) == 1.0

    def test_group_symmetric(self):
        assert equal_opportunity([1, 0, 1, 0], [1, 1, 1, 1], [1, 1, -1, -1], full(4)) == 0.0

    def test_no_positives_in_group(self):
        with pytest.raises(ValueError):
            equal_opportunity([1, 1], [1, 0], [1, -1], full(2))


class TestThreeClasses:
    """Both gaps are defined for two classes: a class 2 is refused with one
    line, not read as a class that is never positive."""

    # class 1 is predicted, and recalled, at the same rate in both groups;
    # class 2 is predicted and recalled for half of group +1 and none of group -1
    S = [1, 1, 1, 1, -1, -1, -1, -1]
    Y = [1, 2, 2, 0, 1, 2, 2, 0]
    Y_HAT = [1, 2, 2, 0, 1, 0, 0, 0]

    def test_demographic_parity_refuses_a_class_2_prediction(self):
        with pytest.raises(ValueError, match=r"^prediction 2 is not 0 or 1: fairprop is two-class$"):
            demographic_parity(self.Y_HAT, self.S, full(8))

    def test_equal_opportunity_refuses_a_class_2_prediction_or_label(self):
        with pytest.raises(ValueError, match=r"^prediction 2 is not 0 or 1: fairprop is two-class$"):
            equal_opportunity(self.Y_HAT, self.Y, self.S, full(8))
        y_hat = [1, 0, 0, 0, 1, 0, 0, 0]
        with pytest.raises(ValueError, match=r"^label 2 is not 0 or 1: fairprop is two-class$"):
            equal_opportunity(y_hat, self.Y, self.S, full(8))

    def test_unmasked_values_are_not_read(self):
        # only the masked nodes are scored: a class 2 outside the mask is no class of the gap
        mask = np.array([True, False, False, True, True, False, False, True])
        assert demographic_parity(self.Y_HAT, self.S, mask) == 0.0
        assert equal_opportunity(self.Y_HAT, self.Y, self.S, mask) == 0.0


class TestInvariances:
    def test_group_flip_leaves_gaps_unchanged(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 30))
            y_hat = rng.integers(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            s = rng.choice([-1, 1], size=n)
            s[:2] = [1, -1]
            y[:2] = 1
            mask = full(n)
            iv = incident_vector(s)
            iv_flipped = incident_vector(-s)
            np.testing.assert_allclose(iv_flipped.values, -iv.values)
            assert demographic_parity(y_hat, s, mask) == demographic_parity(
                y_hat, -s, mask
            )
            assert equal_opportunity(y_hat, y, s, mask) == equal_opportunity(
                y_hat, y, -s, mask
            )

    def test_node_permutation_invariance(self, rng):
        n = 20
        y_hat = rng.integers(0, 2, size=n)
        y = rng.integers(0, 2, size=n)
        s = rng.choice([-1, 1], size=n)
        s[:2] = [1, -1]
        y[:2] = 1
        mask = rng.random(n) < 0.8
        mask[:2] = True
        perm = rng.permutation(n)
        assert accuracy(y_hat, y, mask) == accuracy(y_hat[perm], y[perm], mask[perm])
        assert demographic_parity(y_hat, s, mask) == demographic_parity(
            y_hat[perm], s[perm], mask[perm]
        )
        assert equal_opportunity(y_hat, y, s, mask) == equal_opportunity(
            y_hat[perm], y[perm], s[perm], mask[perm]
        )

    def test_gap_vector_equals_group_mean_difference(self, rng):
        # each entry of delta . softmax(F) is the group-mean probability gap
        for _ in range(30):
            n, d = int(rng.integers(3, 20)), int(rng.integers(2, 5))
            s = rng.choice([-1, 1], size=n)
            s[:2] = [1, -1]
            F = rng.standard_normal((n, d)) * 3
            iv = incident_vector(s)
            probs = row_softmax(F)
            p = iv.values @ probs
            oracle = probs[s == 1].mean(axis=0) - probs[s == -1].mean(axis=0)
            np.testing.assert_allclose(p, oracle, atol=1e-12)


class TestPredictLabels:
    def test_tie_breaks_to_lower_index(self):
        logits = np.array([[0.5, 0.5], [1.0, 2.0]])
        np.testing.assert_array_equal(predict_labels(logits), [0, 1])
