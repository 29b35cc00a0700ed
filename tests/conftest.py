import pytest

from kcomm2 import FLOAT_C, FLOAT_R, GAUSSIAN_QI, RATIONAL_Q, matrix_units


ALL_FIELDS = [RATIONAL_Q, GAUSSIAN_QI, FLOAT_R, FLOAT_C]
EXACT_FIELDS = [RATIONAL_Q, GAUSSIAN_QI]


units = matrix_units  # (E11, E12, E21, E22) over the given field


@pytest.fixture(params=ALL_FIELDS, ids=lambda f: f.variant)
def any_field(request):
    return request.param


@pytest.fixture(params=EXACT_FIELDS, ids=lambda f: f.variant)
def exact_field(request):
    return request.param
