"""Tests for repro.text.normalize."""

from repro.text.normalize import (
    expand_abbreviations,
    extract_phone,
    normalize_text,
    strip_accents,
)


class TestNormalizeText:
    def test_lowercase_and_whitespace(self):
        assert normalize_text("  Hello   WORLD ") == "hello world"

    def test_accents(self):
        assert normalize_text("Café Noël") == "cafe noel"

    def test_punctuation_dropped_by_default(self):
        assert normalize_text("a,b.c!") == "a b c"

    def test_punctuation_kept_on_request(self):
        assert "." in normalize_text("co. ltd", keep_punct=True)


class TestTokens:
    def test_strip_accents_only(self):
        assert strip_accents("Ångström") == "Angstrom"


class TestAbbreviations:
    def test_street_forms(self):
        assert expand_abbreviations("powers ferry rd.") == "powers ferry road"

    def test_case_insensitive_lookup(self):
        assert expand_abbreviations("Main St.") == "Main street"

    def test_unknown_tokens_pass_through(self):
        assert expand_abbreviations("xyzzy") == "xyzzy"


class TestExtractors:
    def test_phone_formats_canonicalized(self):
        assert extract_phone("(404) 555-1234") == "404-555-1234"
        assert extract_phone("404.555.1234") == "404-555-1234"
        assert extract_phone("4045551234") == "404-555-1234"

    def test_phone_absent(self):
        assert extract_phone("no digits here") is None
