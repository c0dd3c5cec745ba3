"""A compiled plan is shared across tenants, so its type freezes it."""

import pytest

from repro.core import PSSConfig
from repro.core import plans as plan_module
from repro.core.plans import SpecializedPlan, compile_plan

CONFIG = PSSConfig(num_features=4, entries_per_feature=64)


@pytest.fixture
def plan():
    return compile_plan(CONFIG)


class TestPlanIsFrozen:
    @pytest.mark.parametrize("slot", SpecializedPlan.__slots__)
    def test_setting_any_slot_raises(self, plan, slot):
        before = getattr(plan, slot)
        with pytest.raises(AttributeError):
            setattr(plan, slot, None)
        assert getattr(plan, slot) is before

    @pytest.mark.parametrize("slot", SpecializedPlan.__slots__)
    def test_deleting_any_slot_raises(self, plan, slot):
        with pytest.raises(AttributeError):
            delattr(plan, slot)
        assert hasattr(plan, slot)

    @pytest.mark.skipif(plan_module._np is None, reason="needs numpy")
    @pytest.mark.parametrize("array", ["_u64_salts", "_u64_bases"])
    def test_numpy_arrays_refuse_element_writes(self, plan, array):
        values = getattr(plan, array)
        snapshot = values.tolist()
        with pytest.raises(ValueError):
            values[0] = 1
        with pytest.raises(ValueError):
            values += 1
        assert values.tolist() == snapshot
