"""The contract of the package's immutable value classes: construction by
keyword and by position with the documented defaults, read-only fields,
``vars()`` as the field dict, and equality and hash by identity, as for
any Python object."""

import numpy as np
import pytest

from meanfield_hmc import (AssumptionConstants, ConditionReport, CoupleResult,
                           CouplingParams, MeanFieldModel, ShallowNetDataset,
                           TheoryConstants, gaussian_model)
from meanfield_hmc.experiments import Report
from meanfield_hmc.models import _Frozen

_THEORY_FIELDS = ("K", "L", "L_tilde", "R_conv", "W0", "epsilon", "T", "R_tilde",
                  "R1", "gamma", "C_hat", "L_e", "c_nhmc", "c_strongconvex",
                  "c_uhmc", "A", "B1", "B", "B2", "B3", "C")


def _model_fields():
    m = gaussian_model(0.25)
    names = ("name", "dim", "epsilon", "constants", "grad_U_all")
    return names, tuple(getattr(m, name) for name in names)


def _cases():
    """(class, required field names and values, defaults)."""
    model_names, model_values = _model_fields()
    a1, a2 = np.array([[1.0]]), np.array([[2.0]])
    b1, b2 = np.array([True]), np.array([False])
    return {
        "AssumptionConstants": (
            AssumptionConstants, ("K", "L1", "L2", "L_tilde", "R_conv", "W0"),
            (0.5, 1.5, 2.0, 0.8, 0.7, 1.3), {}),
        "MeanFieldModel": (
            MeanFieldModel, model_names, model_values, {"params": {}}),
        "ShallowNetDataset": (
            ShallowNetDataset, ("inputs", "outputs"), (a1, a1[:, 0]), {}),
        "CouplingParams": (
            CouplingParams, ("R_tilde", "T"), (0.3, 1.0), {}),
        "CoupleResult": (
            CoupleResult, ("xi", "eta", "synchronous", "coalescing"),
            (a1, a2, b1, b2), {}),
        "ConditionReport": (
            ConditionReport, ("lhs", "rhs"), (1.0, 2.0), {}),
        "TheoryConstants": (
            TheoryConstants, _THEORY_FIELDS,
            tuple(float(i) for i in range(1, 22)), {"conditions": {}}),
        "Report": (
            Report, ("columns", "rows", "config", "footer"),
            (("k",), [(1,)], {"seed": 0}, {"slope": 0.5}), {"plot": None}),
    }


_CASES = _cases()


def test_every_value_class_has_a_case():
    # a value class added without a row here would skip the contract tests
    assert sorted(cls.__name__ for cls in _Frozen.__subclasses__()) == sorted(_CASES)


@pytest.fixture(params=sorted(_CASES))
def case(request):
    return _CASES[request.param]


def test_construction_by_keyword_and_position_with_defaults(case):
    cls, names, values, defaults = case
    fields = {**dict(zip(names, values)), **defaults}
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert list(vars(obj)) == list(fields)
        assert all(vars(obj)[name] is value for name, value in zip(names, values))
        for name, default in defaults.items():
            assert getattr(obj, name) == default
    # every field given, the defaulted ones last, in order
    full = cls(*values, *(f"given-{name}" for name in defaults))
    assert [getattr(full, name) for name in defaults] == [
        f"given-{name}" for name in defaults]
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_mutable_defaults_are_new_per_instance(case):
    cls, _, values, defaults = case
    first, second = cls(*values), cls(*values)
    for name, default in defaults.items():
        if isinstance(default, dict):
            assert getattr(first, name) is not getattr(second, name)


def test_fields_are_read_only(case):
    cls, names, values, defaults = case
    obj = cls(*values)
    before = dict(vars(obj))
    for name in (*names, *defaults, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vars(obj) == before


def test_repr_names_every_field(case):
    cls, names, values, defaults = case
    text = repr(cls(*values))
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}=" in text for name in (*names, *defaults))


def test_instances_compare_and_hash_by_identity():
    # equal fields do not make equal instances: arrays of several elements
    # compare without raising, and an instance of every class hashes
    x = np.arange(6.0).reshape(3, 2)
    pairs = [(ShallowNetDataset(x.copy(), x[:, 0].copy()),
              ShallowNetDataset(x.copy(), x[:, 0].copy())),
             (CoupleResult(x.copy(), x.copy(), x[:, 0] > 1, x[:, 1] > 1),
              CoupleResult(x.copy(), x.copy(), x[:, 0] > 1, x[:, 1] > 1))]
    for first, second in pairs:
        assert first == first and first != second and not first == second
    for cls, _, values, _ in _CASES.values():
        obj = cls(*values)
        assert hash(obj) == hash(obj) and len({obj, cls(*values)}) == 2


def test_shallow_net_dataset_keeps_its_float_arrays():
    data = ShallowNetDataset([[1], [2]], [3, 4])
    assert data.inputs.dtype == data.outputs.dtype == np.float64
    assert vars(data) == {"inputs": data.inputs, "outputs": data.outputs}
    assert data.inputs.tolist() == [[1.0], [2.0]]


@pytest.mark.parametrize("name", ["L1", "L_tilde", "R_conv", "W0"])
@pytest.mark.parametrize("value", [-1.0, np.nan])
def test_assumption_constants_refuse_negative_and_nan_bounds(name, value):
    # a nan L1 would make L and C_hat nan
    fields = dict(K=0.5, L1=1.5, L2=2.0, L_tilde=0.8, R_conv=0.7, W0=1.3)
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
        AssumptionConstants(**{**fields, name: value})


def test_coupling_params_refuse_a_nan_radius():
    # under a nan radius no pair would be synchronous, and max(T, nan) is T
    with pytest.raises(ValueError, match="^R_tilde must be nonnegative$"):
        CouplingParams(R_tilde=np.nan, T=1.0)
