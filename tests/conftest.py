import dataclasses

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class ConversionCounter:
    """Copies spectra with exact numerators that count their conversions to float."""

    def __init__(self):
        self.conversions = 0
        counter = self

        class Numerator(int):
            def __truediv__(self, other):
                counter.conversions += 1
                return int(self) / other

        self._numerator = Numerator

    def wrap(self, spectrum):
        numerators = [self._numerator(num) for num in spectrum.numerators]
        return dataclasses.replace(spectrum, numerators=numerators)


@pytest.fixture
def conversion_counter():
    return ConversionCounter()
