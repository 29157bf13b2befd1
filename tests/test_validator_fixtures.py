"""Soundness/completeness of the validator on the single-violation catalogue."""

import pytest

from ipctp.schedule import validate

from fixtures_violations import FIXTURES


@pytest.mark.parametrize(
    "name,family,builder", FIXTURES, ids=[name for name, _, _ in FIXTURES]
)
def test_fixture_flags_exactly_its_family(name, family, builder):
    instance, derived, solution = builder()
    violations = validate(instance, derived, solution)
    assert violations, f"{name}: expected a violation, got none"
    assert [v.family for v in violations] == [family], (
        f"{name}: expected exactly [{family}], got "
        f"{[(v.family, v.ids, v.detail) for v in violations]}"
    )


def test_catalogue_has_23_fixtures():
    assert len(FIXTURES) == 23


def test_catalogue_covers_every_constraint_family():
    covered = {family for _, family, _ in FIXTURES}
    assert len(covered) == 20
