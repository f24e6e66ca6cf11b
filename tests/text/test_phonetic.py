"""Tests for repro.text.phonetic."""

from repro.text.phonetic import soundex


class TestSoundex:
    def test_textbook_values(self):
        assert soundex("Robert") == "R163"
        assert soundex("Rupert") == "R163"
        assert soundex("Tymczak") == "T522"
        assert soundex("Pfister") == "P236"
        assert soundex("Honeyman") == "H555"

    def test_hw_transparency(self):
        # 'Ashcraft' -> A261: h does not split the s/c group.
        assert soundex("Ashcraft") == "A261"

    def test_padding(self):
        assert soundex("Lee") == "L000"

    def test_empty_and_nonalpha(self):
        assert soundex("") == "0000"
        assert soundex("123") == "0000"

    def test_sounds_like_typo(self):
        assert soundex("hospital") == soundex("hospitel")
        assert soundex("hospital") != soundex("zebra")
