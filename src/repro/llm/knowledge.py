"""The simulated LLM's world knowledge.

A :class:`KnowledgeBase` is a *coverage-gated view* of the vocabulary
tables in :mod:`repro.datasets.vocabularies`: each fact is independently
included with probability equal to the model's coverage, decided by a
stable hash of ``(model name, fact key)`` so a model always knows — or
never knows — a given fact, across runs and processes.

This is the one place the simulator touches generator-side data, and it is
*read-only world facts* (what city has area code 770), never instance
labels.  A weaker model (Vicuna) simply recalls fewer facts, which is what
separates the models on knowledge-bound tasks exactly as in the paper.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.datasets import vocabularies as vocab


def _knows(model: str, fact_key: str, coverage: float) -> bool:
    """Deterministic membership test: does ``model`` recall this fact?"""
    digest = hashlib.blake2b(
        f"{model}\x00{fact_key}".encode("utf-8"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little") / 0xFFFFFFFF < coverage


#: canonical-name aliases: the form a model recalls spontaneously may not
#: be the dataset's surface convention; few-shot examples teach the
#: convention (paper Section 3.2 "condition the LLM").
BRAND_ALIASES: dict[str, str] = {
    "hp": "hewlett-packard",
    "lg": "lg electronics",
    "western digital": "wd",
    "apple": "apple inc.",
    "sony": "sony corporation",
    "dell": "dell inc.",
    "asus": "asustek",
    "nintendo": "nintendo co.",
    "intel": "intel corporation",
    "canon": "canon inc.",
}

CITY_ALIASES: dict[str, str] = {
    "new york": "new york city",
    "washington": "washington d.c.",
    "los angeles": "la",
    "san francisco": "san francisco, ca",
    "philadelphia": "philly",
    "las vegas": "las vegas, nv",
}


class KnowledgeBase:
    """Coverage-gated world facts for one model.

    Parameters
    ----------
    model:
        Model name — part of every fact's hash key.
    coverage:
        General world-knowledge coverage in [0, 1].
    concept_coverage:
        Specialist (clinical) concept coverage in [0, 1].
    """

    def __init__(self, model: str, coverage: float, concept_coverage: float):
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {coverage}")
        if not 0.0 <= concept_coverage <= 1.0:
            raise ValueError(
                f"concept_coverage must be in [0, 1], got {concept_coverage}"
            )
        self._model = model
        self._coverage = coverage
        self._concept_coverage = concept_coverage
        #: attribute -> known domain; keys are the domain tables' names
        self._domains: dict[str, frozenset[str] | None] = {}

    # -- geography ---------------------------------------------------------

    def city_for_area_code(self, area_code: str) -> str | None:
        """The city an area code belongs to, if recalled."""
        city = vocab.AREA_CODE_TO_CITY.get(area_code)
        if city is None:
            return None
        if not _knows(self._model, f"area:{area_code}", self._coverage):
            return None
        return city

    def city_for_zip_prefix(self, zip_prefix: str) -> str | None:
        """The city a 3-digit ZIP prefix belongs to, if recalled."""
        for city in vocab.US_CITIES:
            if city.zip_prefix == zip_prefix:
                if _knows(self._model, f"zip:{zip_prefix}", self._coverage):
                    return city.name
                return None
        return None

    def state_for_city(self, city_name: str) -> str | None:
        city = vocab.CITY_BY_NAME.get(city_name)
        if city is None:
            return None
        if not _knows(self._model, f"state:{city_name}", self._coverage):
            return None
        return city.state

    def knows_city(self, name: str) -> bool:
        return name in vocab.CITY_BY_NAME and _knows(
            self._model, f"city:{name}", self._coverage
        )

    # -- brands ------------------------------------------------------------

    def find_brand(self, text: str) -> str | None:
        """The first known brand mentioned in ``text`` (bigram-aware)."""
        tokens = text.lower().split()
        candidates = []
        for i, token in enumerate(tokens):
            candidates.append(token)
            if i + 1 < len(tokens):
                candidates.append(f"{token} {tokens[i + 1]}")
        # Prefer longer (bigram) brand names over their prefixes.
        for candidate in sorted(set(candidates), key=len, reverse=True):
            if candidate in vocab.PRODUCT_BRANDS and _knows(
                self._model, f"brand:{candidate}", self._coverage
            ):
                return candidate
        return None

    def brand_alias(self, brand: str) -> str | None:
        """The canonical variant a model might emit instead of ``brand``."""
        return BRAND_ALIASES.get(brand)

    def city_alias(self, city: str) -> str | None:
        return CITY_ALIASES.get(city)

    # -- categorical domains (error detection) ------------------------------

    @staticmethod
    @lru_cache(maxsize=1)
    def _domain_tables() -> dict[str, frozenset[str]]:
        return {
            "workclass": frozenset(vocab.WORKCLASSES),
            "occupation": frozenset(vocab.OCCUPATIONS),
            "education": frozenset(e for e, __ in vocab.EDUCATION_LEVELS),
            "maritalstatus": frozenset(vocab.MARITAL_STATUSES),
            "relationship": frozenset(vocab.RELATIONSHIPS),
            "race": frozenset(vocab.RACES),
            "sex": frozenset(vocab.SEXES),
            "country": frozenset(vocab.COUNTRIES),
            "state": frozenset(vocab.US_STATE_CODES),
            "city": frozenset(c.name for c in vocab.US_CITIES),
            "condition": frozenset(vocab.HOSPITAL_CONDITIONS),
            "measurecode": frozenset(c for c, __ in vocab.HOSPITAL_MEASURES),
            "measurename": frozenset(m for __, m in vocab.HOSPITAL_MEASURES),
            "type": frozenset(vocab.RESTAURANT_TYPES),
            "income": frozenset(["<=50k", ">50k"]),
        }

    #: attributes whose value set is closed and enumerable (an unknown
    #: value is itself evidence of error); open domains (names, free text)
    #: merely make unknown values *suspicious*
    _CLOSED_DOMAINS = frozenset({
        "workclass", "occupation", "education", "maritalstatus",
        "relationship", "race", "sex", "country", "state", "income",
        "measurecode", "condition", "type",
    })

    def is_closed_domain(self, attribute: str) -> bool:
        """Whether the attribute's legal values form a closed set."""
        return attribute in self._CLOSED_DOMAINS

    def domain_of(self, attribute: str) -> frozenset[str] | None:
        """Known value domain of a categorical attribute.

        Membership is gated *per value* (slightly boosted — category
        vocabularies are high-frequency training data), so a weaker model
        knows a thinner slice of each domain rather than losing whole
        domains at once.  Computed once per attribute: the gate is a pure
        function of the model and the fact, so the domain never changes.
        """
        if attribute in self._domains:
            return self._domains[attribute]
        table = self._domain_tables().get(attribute)
        if table is None:
            return None
        # Small closed domains (sex, income brackets) are universally known;
        # coverage only thins out large vocabularies.
        coverage = min(1.0, self._coverage + 0.04 + 2.0 / len(table))
        known = frozenset(
            value
            for value in table
            if _knows(self._model, f"domain:{attribute}:{value}", coverage)
        )
        self._domains[attribute] = known if known else None
        return self._domains[attribute]

    @staticmethod
    @lru_cache(maxsize=1)
    def _lexicon() -> frozenset[str]:
        """Every word the synthetic world contains — the spell-check base."""
        words: set[str] = set()
        for table in (
            vocab.HOSPITAL_NAME_PARTS, vocab.STREET_NAMES,
            vocab.RESTAURANT_NAME_PARTS, vocab.HOSPITAL_CONDITIONS,
            vocab.RESTAURANT_TYPES, vocab.OCCUPATIONS, vocab.WORKCLASSES,
            vocab.MARITAL_STATUSES, vocab.RELATIONSHIPS, vocab.RACES,
            vocab.COUNTRIES, vocab.BREWERIES, vocab.BEER_STYLES,
            vocab.SOFTWARE_TITLES, vocab.SOFTWARE_PUBLISHERS,
        ):
            for phrase in table:
                words.update(phrase.replace("-", " ").split())
        for __, measure in vocab.HOSPITAL_MEASURES:
            words.update(measure.split())
        for city in vocab.US_CITIES:
            words.update(city.name.split())
        words.update(["patients", "the", "of", "at", "for", "and"])
        return frozenset(w.strip(".,") for w in words if w)

    def near_known_word(self, word: str) -> bool:
        """Is ``word`` within one edit of a word of the world?

        Covers deletion/substitution/transposition typos that the cheaper
        structural checks miss (``thrombembolism`` → ``thromboembolism``).
        """
        from repro.text.similarity import levenshtein

        word = word.lower().strip(".,()")
        if len(word) < 4:
            return False
        for known in self._lexicon():
            if abs(len(known) - len(word)) > 1 or len(known) < 4:
                continue
            if word[0] != known[0] and word[-1] != known[-1]:
                continue  # cheap pre-filter: typos rarely change both ends
            if levenshtein(word, known) <= 1:
                return True
        return False

    def knows_word(self, word: str) -> bool:
        """Spell-check membership: is ``word`` a word of the world?"""
        word = word.lower().strip(".,()")
        if not word or any(ch.isdigit() for ch in word):
            return True  # numbers and codes are not spell-checkable
        if word not in self._lexicon():
            return False
        return _knows(self._model, f"word:{word}", min(1.0, self._coverage + 0.05))

    # -- numeric plausibility (error detection) ------------------------------

    _NUMERIC_RANGES: dict[str, tuple[float, float]] = {
        "age": (0, 120),
        "hoursperweek": (1, 99),
        "educationnum": (1, 16),
        "providernumber": (10000, 999999),
    }

    def plausible_range(self, attribute: str) -> tuple[float, float] | None:
        """Common-sense value range for a known numeric attribute."""
        rng = self._NUMERIC_RANGES.get(attribute)
        if rng is None:
            return None
        if not _knows(self._model, f"range:{attribute}", self._coverage):
            return None
        return rng

    def education_number(self, education: str) -> int | None:
        """The educationnum a census education level maps to."""
        for name, number in vocab.EDUCATION_LEVELS:
            if name == education:
                if _knows(self._model, f"edu:{name}", self._coverage):
                    return number
                return None
        return None

    # -- clinical concepts (schema matching) --------------------------------

    @staticmethod
    @lru_cache(maxsize=1)
    def _concept_index() -> dict[str, int]:
        index: dict[str, int] = {}
        for group_id, group in enumerate(vocab.CLINICAL_ATTRIBUTE_GROUPS):
            for name, __ in group:
                index[name] = group_id
        return index

    def concept_of(self, attribute_name: str) -> int | None:
        """The clinical concept cluster an attribute name resolves to.

        Gated by *concept* coverage — the specialist knowledge the paper's
        Limitation (1) (domain specification) is about.
        """
        group_id = self._concept_index().get(attribute_name)
        if group_id is None:
            return None
        if not _knows(
            self._model, f"concept:{attribute_name}", self._concept_coverage
        ):
            return None
        return group_id
