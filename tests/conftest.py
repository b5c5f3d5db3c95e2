import pytest

from wythoff.face_lattice import build_lattice
from wythoff.geometry import realize
from wythoff.reflection_group import enumerate_group


class _Shared:
    """Memoized groups, lattices, and realizations keyed by diagram."""

    def __init__(self):
        self._groups = {}
        self._lattices = {}
        self._realizations = {}

    def group(self, d):
        key = (d.node_ids, d.edges)
        if key not in self._groups:
            self._groups[key] = enumerate_group(d)
        return self._groups[key]

    def lattice(self, d):
        key = (d.node_ids, d.marks, d.edges)
        if key not in self._lattices:
            self._lattices[key] = build_lattice(d, group=self.group(d))
        return self._lattices[key]

    def realization(self, d):
        key = (d.node_ids, d.marks, d.edges)
        if key not in self._realizations:
            self._realizations[key] = realize(self.lattice(d))
        return self._realizations[key]


@pytest.fixture(scope="session")
def shared():
    return _Shared()
