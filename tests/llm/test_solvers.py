"""Unit tests of the per-task solvers (direct, below the chat layer)."""

import random

import pytest

from repro.llm.knowledge import KnowledgeBase
from repro.llm.profiles import get_profile
from repro.llm.solvers.common import BatchInterference, ThresholdFit, default_threshold
from repro.llm.solvers.di import DISolver
from repro.llm.solvers.ed import EDSolver
from repro.llm.solvers.em import (
    EMSolver,
    _attribute_similarity,
    _identity_code_tokens,
    pair_score,
)
from repro.llm.solvers.sm import SMSolver, _antonym_clash


@pytest.fixture()
def oracle_kb():
    return KnowledgeBase("oracle", coverage=1.0, concept_coverage=1.0)


@pytest.fixture()
def ed_solver(oracle_kb):
    return EDSolver(get_profile("gpt-4"), oracle_kb, random.Random(0), 0.65)


class TestThresholdFit:
    def test_separable_max_margin(self):
        fit = ThresholdFit.from_examples(
            scores=[0.1, 0.2, 0.8, 0.9], labels=[False, False, True, True],
            default=0.5,
        )
        assert fit.fitted
        assert 0.45 < fit.threshold < 0.55  # widest gap is 0.2..0.8

    def test_one_class_falls_back(self):
        fit = ThresholdFit.from_examples([0.5, 0.6], [True, True], default=0.42)
        assert not fit.fitted
        assert fit.threshold == 0.42

    def test_interleaved_maximizes_accuracy(self):
        fit = ThresholdFit.from_examples(
            scores=[0.1, 0.4, 0.3, 0.9], labels=[False, False, True, True],
            default=0.5,
        )
        correct = sum(
            (s >= fit.threshold) == y
            for s, y in zip([0.1, 0.4, 0.3, 0.9], [False, False, True, True])
        )
        assert correct >= 3

    def test_default_threshold_interpolation(self):
        assert default_threshold(1.0, 0.0, 0.5) == 0.5
        assert default_threshold(0.6, 0.2, 1.0) == 0.6


class TestBatchInterference:
    def test_confident_answers_untouched(self):
        profile = get_profile("vicuna-13b")  # highest interference
        interference = BatchInterference(profile, random.Random(0))
        outcomes = [interference.adjust(True, margin=0.9) for __ in range(50)]
        assert all(outcomes)

    def test_dissimilar_questions_interfere_more(self):
        profile = get_profile("vicuna-13b")
        similar = ["alpha beta gamma"] * 400
        mixed = [f"totally unrelated {i} stuff {i*7}" for i in range(400)]
        flips_similar = flips_mixed = 0
        a = BatchInterference(profile, random.Random(1), questions=similar)
        b = BatchInterference(profile, random.Random(1), questions=mixed)
        for __ in range(400):
            if a.adjust(True, margin=0.01) != True:
                flips_similar += 1
        # Seed the history with alternating answers so "previous" differs.
        for i in range(400):
            if b.adjust(i % 2 == 0, margin=0.01) != (i % 2 == 0):
                flips_mixed += 1
        assert flips_mixed >= flips_similar

    def test_dissimilarity_is_the_set_union_jaccard_distance(self):
        # Empty and blank questions, repeated tokens and case variants.
        rng = random.Random(7)
        vocabulary = ["alpha", "Alpha", "beta", "gamma", "7", " ", "x"]
        profile = get_profile("gpt-3.5")
        for __ in range(300):
            questions = [
                " ".join(rng.choices(vocabulary, k=rng.randint(0, 6)))
                for __ in range(rng.randint(1, 8))
            ]
            expected, previous = [], None
            for question in questions:
                tokens = set(question.lower().split())
                if previous is None or not (tokens | previous):
                    expected.append(0.0)
                else:
                    expected.append(
                        1.0 - len(tokens & previous) / len(tokens | previous)
                    )
                previous = tokens
            interference = BatchInterference(
                profile, random.Random(0), questions=questions
            )
            assert [
                interference.dissimilarity(index)
                for index in range(len(questions))
            ] == expected
            assert interference.dissimilarity(len(questions)) == 1.0

    def test_lazy_distances_keep_every_decision_and_draw(self):
        # Random question lists (none, empty, blank) and random margins
        # around the window: the same decisions, and the generator left
        # in the same state after every answer, as the eager class.
        rng = random.Random(11)
        vocabulary = ["alpha", "Alpha", "beta", "gamma", "7", " ", "x"]
        for model in ("gpt-3.5", "vicuna-13b"):
            profile = get_profile(model)
            for trial in range(200):
                questions = [
                    " ".join(rng.choices(vocabulary, k=rng.randint(0, 6)))
                    for __ in range(rng.randint(0, 8))
                ] if trial % 5 else None
                lazy_rng, eager_rng = random.Random(trial), random.Random(trial)
                lazy = BatchInterference(profile, lazy_rng, questions=questions)
                eager = _EagerInterference(
                    profile, eager_rng, questions=questions
                )
                for __ in range(rng.randint(0, 12)):
                    decision = rng.random() < 0.5
                    margin = rng.uniform(-0.3, 0.3)
                    assert lazy.adjust(decision, margin) == eager.adjust(
                        decision, margin
                    )
                    assert lazy_rng.getstate() == eager_rng.getstate()


class _EagerInterference:
    """``BatchInterference`` as it was when every adjacent distance was
    computed up front; the reference for the lazy one."""

    def __init__(self, profile, rng, questions=None, margin_window=0.12):
        self._profile = profile
        self._rng = rng
        self._margin_window = margin_window
        self._history = []
        self._dissimilarity = [0.0]
        if questions:
            previous_tokens = None
            self._dissimilarity = []
            for question in questions:
                tokens = set(question.lower().split())
                if previous_tokens is None:
                    self._dissimilarity.append(0.0)
                else:
                    shared = len(tokens & previous_tokens)
                    union = len(tokens) + len(previous_tokens) - shared
                    self._dissimilarity.append(
                        1.0 - shared / union if union else 0.0
                    )
                previous_tokens = tokens

    def adjust(self, decision, margin):
        index = len(self._history)
        adjusted = decision
        dissimilarity = (
            self._dissimilarity[index]
            if index < len(self._dissimilarity)
            else 1.0
        )
        rate = self._profile.interference_rate * (0.3 + 1.7 * dissimilarity)
        if (
            self._history
            and abs(margin) < self._margin_window
            and self._rng.random() < rate
        ):
            adjusted = self._history[-1]
        self._history.append(adjusted)
        return adjusted


class TestEDSolverEvidence:
    def test_clean_value_scores_low(self, ed_solver):
        fields = {"occupation": "sales", "age": "40"}
        assert ed_solver.evidence(fields, "occupation", careful=True) < 0.3

    def test_typo_scores_high(self, ed_solver):
        fields = {"occupation": "salxes"}
        assert ed_solver.evidence(fields, "occupation", careful=True) > 0.8

    def test_domain_violation_scores_high(self, ed_solver):
        fields = {"workclass": "sales"}  # an occupation, not a workclass
        assert ed_solver.evidence(fields, "workclass", careful=True) > 0.8

    def test_numeric_outlier(self, ed_solver):
        assert ed_solver.evidence({"age": "412"}, "age", careful=True) > 0.9
        assert ed_solver.evidence({"age": "41"}, "age", careful=True) < 0.3

    def test_education_consistency_careful_only(self, ed_solver):
        fields = {"education": "bachelors", "educationnum": "2"}
        careful = ed_solver.evidence(fields, "educationnum", careful=True)
        shallow = ed_solver.evidence(fields, "educationnum", careful=False)
        assert careful > 0.8
        assert shallow < 0.3

    def test_short_phone_flagged_careful(self, ed_solver):
        fields = {"phone": "123456789"}  # 9 digits
        assert ed_solver.evidence(fields, "phone", careful=True) > 0.8

    def test_stateavg_fault_attribution(self, ed_solver):
        # stateavg consistent with measurecode, but state itself corrupted:
        # the error is NOT in stateavg.
        fields = {"state": "gxa", "measurecode": "ami-1", "stateavg": "ga_ami-1"}
        assert ed_solver.evidence(fields, "stateavg", careful=True) < 0.3

    def test_missing_cell_not_an_error(self, ed_solver):
        assert ed_solver.evidence({"age": None}, "age", careful=True) == 0.0


class TestEMSimilarity:
    def test_phone_equality(self):
        assert _attribute_similarity("(404) 555-1234", "404.555.1234", False) == 1.0
        assert _attribute_similarity("404-555-1234", "404-555-9999", False) == 0.0

    def test_identifier_semantics(self):
        assert _attribute_similarity("x3319", "x3319", False) == 1.0
        assert _attribute_similarity("x3319", "x9339", False) == 0.05

    def test_year_asymmetry(self):
        same = _attribute_similarity("2004", "2004", False)
        near = _attribute_similarity("2004", "2005", False)
        far = _attribute_similarity("1998", "2004", False)
        assert same > near > far == 0.0
        assert same < 1.0  # agreement is weak evidence

    def test_quantity_closeness(self):
        assert _attribute_similarity("100", "105", False) > 0.9
        assert _attribute_similarity("100", "1000", False) < 0.2

    def test_duration_semantics(self):
        assert _attribute_similarity("3:45", "3:45", False) == 1.0
        assert _attribute_similarity("3:45", "4:02", False) == 0.2

    def test_abbreviation_expansion_careful_only(self):
        careful = _attribute_similarity("powers ferry rd.", "powers ferry road", True)
        shallow = _attribute_similarity("powers ferry rd.", "powers ferry road", False)
        assert careful == 1.0
        assert shallow < 1.0


class TestEMCodes:
    def test_codes_from_identity_field_only(self):
        record = {"title": "adobe studio 5.0", "price": "29.99"}
        codes = _identity_code_tokens(record)
        assert "50" in codes
        assert "2999" not in codes

    def test_canonicalization(self):
        a = _identity_code_tokens({"title": "thing 5.0"})
        b = _identity_code_tokens({"title": "thing 50"})
        assert a == b

    def test_pair_score_skips_missing(self):
        left = {"a": "x", "b": "y"}
        right = {"a": "x", "b": None}
        assert pair_score(left, right, None, False) == 1.0

    def test_pair_score_weights(self):
        left = {"a": "same", "b": "different"}
        right = {"a": "same", "b": "words"}
        favoring_a = pair_score(left, right, {"a": 1.0, "b": 0.01}, False)
        favoring_b = pair_score(left, right, {"a": 0.01, "b": 1.0}, False)
        assert favoring_a > favoring_b


class TestSMSolver:
    def test_antonym_clash(self):
        assert _antonym_clash("visit start date", "visit end date")
        assert not _antonym_clash("visit start date", "visit start time")
        assert not _antonym_clash("start end span", "start end window")

    def test_lexical_score_penalizes_antonyms(self, oracle_kb):
        solver = SMSolver(get_profile("gpt-4"), oracle_kb, random.Random(0), 0.65)
        clash = solver.lexical_score(
            {"name": "visit_start_date", "description": "date the visit began"},
            {"name": "visit_end_date", "description": "date the visit ended"},
        )
        align = solver.lexical_score(
            {"name": "visit_start_date", "description": "date the visit began"},
            {"name": "admission_date", "description": "date the visit began"},
        )
        assert clash < align


class TestDISolver:
    def test_city_chain(self, oracle_kb):
        solver = DISolver(get_profile("gpt-4"), oracle_kb, random.Random(0), 0.65)
        value, reason = solver._infer(
            {"phone": "770-933-0909", "addr": "1215 powers ferry rd."},
            "city", careful=True,
        )
        assert value == "marietta"
        assert "770" in reason

    def test_brand_chain(self, oracle_kb):
        solver = DISolver(get_profile("gpt-4"), oracle_kb, random.Random(0), 0.65)
        value, __ = solver._infer(
            {"name": "sony bravia tv kdl40", "description": "a tv"},
            "manufacturer", careful=True,
        )
        assert value == "sony"

    def test_no_evidence_returns_none(self, oracle_kb):
        solver = DISolver(get_profile("gpt-4"), oracle_kb, random.Random(0), 0.65)
        value, __ = solver._infer({"type": "thai"}, "city", careful=True)
        assert value is None
