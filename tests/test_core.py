"""Tests for the core robustification layer (transform and variants)."""

import numpy as np
import pytest

from repro.core.transform import RobustSolveConfig, solve_penalized_lp, to_penalty_form
from repro.core.variants import get_variant, list_variants, sgd_options_for_variant
from repro.exceptions import ProblemSpecificationError
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.stochastic import StochasticProcessor


class TestVariants:
    def test_all_paper_variants_registered(self):
        names = list_variants()
        for expected in ("SGD", "SGD+AS,LS", "SGD+AS,SQS", "PRECOND", "ANNEAL", "ALL"):
            assert expected in names

    def test_variant_lookup_case_insensitive(self):
        assert get_variant("anneal").annealing is True
        assert get_variant("ALL").precondition is True

    def test_unknown_variant_raises(self):
        with pytest.raises(ProblemSpecificationError):
            get_variant("SGD+XYZ")

    def test_options_reflect_variant(self):
        options = sgd_options_for_variant("SGD+AS,SQS", iterations=123, base_step=0.7)
        assert options.iterations == 123
        assert options.schedule == "sqs"
        assert options.aggressive is not None
        assert options.annealing is None
        options = sgd_options_for_variant("ANNEAL", iterations=10)
        assert options.annealing is not None
        assert options.aggressive is None

    def test_preconditioning_flag(self):
        assert RobustSolveConfig(variant="PRECOND").uses_preconditioning()
        assert not RobustSolveConfig(variant="SGD,LS").uses_preconditioning()


class TestTransform:
    def _lp(self):
        # minimize -x - y over the unit box
        return LinearProgram(
            c=np.array([-1.0, -1.0]),
            constraints=LinearConstraints(
                A_ub=np.vstack([np.eye(2), -np.eye(2)]),
                b_ub=np.array([1.0, 1.0, 0.0, 0.0]),
            ),
        )

    def test_to_penalty_form(self):
        penalized = to_penalty_form(self._lp(), penalty=5.0, kind=PenaltyKind.L1)
        assert isinstance(penalized, ExactPenaltyProblem)
        assert penalized.penalty == 5.0

    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,SQS", "ANNEAL", "PRECOND"])
    def test_solve_penalized_lp_fault_free(self, variant):
        config = RobustSolveConfig(
            variant=variant, iterations=800, base_step=0.5, penalty=4.0,
            penalty_kind=PenaltyKind.L1,
        )
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        solution, result = solve_penalized_lp(self._lp(), proc, config)
        np.testing.assert_allclose(solution, [1.0, 1.0], atol=0.15)
        assert result.iterations >= 800

    def test_config_sgd_options_round_trip(self):
        config = RobustSolveConfig(variant="ALL", iterations=50)
        options = config.sgd_options()
        assert options.momentum == 0.5
        assert options.aggressive is not None
        assert options.annealing is not None
        assert config.uses_preconditioning()

