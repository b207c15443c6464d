"""Shared fixtures and the bundled scenarios."""

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fmlab import verify
from fmlab.netcore import FfKind, Netlist

BUNDLED = ("concealed_trigger", "payload_mode1", "payload_mode2", "jammed")


def scenario_path(name: str) -> Path:
    return Path(resources.files("fmlab") / "scenarios" / f"{name}.ini")


# taken at import, so a test that monkeypatches verify.CHECKS changes nothing here
_CHECKS = dict(verify.CHECKS)
_RESULTS: dict = {}


@pytest.fixture
def run_check():
    """Run the ``fmlab verify`` check of that name; each runs once a session."""

    def run(name: str) -> verify.CheckResult:
        if name not in _RESULTS:
            _RESULTS[name] = _CHECKS[name]()
        return _RESULTS[name]

    return run


def _folded_table_mismatches(netlist: Netlist) -> list[tuple[int, int]]:
    """(q, address) of every entry of a folded flip-flop table that differs
    from the flip-flop's cone recomputed over all ``2**w`` addresses.

    Bit ``b`` of an address is the value of the net at position ``b`` of
    the flip-flop's ``ins`` row where that net first occurs, so the net-0
    pads after its support must not matter.  The cone is walked from the
    (sr, ce, d, q) pins through LUTs, each read from its table bits, down
    to those support nets and constants; the pins then give the next
    state: sr beats ce, which beats hold.
    """
    bad = []
    # a stage with LUT levels is not folded: it reads the (sr, ce, d, q) table
    folded = [g.ff for stage in netlist._compile().stages if not stage.levels for g in stage.groups]
    for ff in folded:
        size = 1 << ff.ins.shape[1]
        address = np.arange(size)
        for q, ins, base in zip(ff.out.tolist(), ff.ins.tolist(), ff.base.tolist()):
            values: dict[int, np.ndarray] = {}
            for b, net in enumerate(ins):
                values.setdefault(net, (address >> b) & 1)

            def value(net: int) -> np.ndarray:
                if net not in values:
                    kind, arg = netlist._drivers[net]
                    if kind == "const":
                        values[net] = np.full(size, arg)
                    elif kind == "lut":
                        lut = netlist.cells[arg]
                        entries = np.array([(lut.table.bits >> e) & 1 for e in range(64)])
                        values[net] = entries[sum(value(n) << k for k, n in enumerate(lut.inputs))]
                    else:
                        raise AssertionError(f"the cone of flip-flop {q} reads net {net} outside its support")
                return values[net]

            cell = netlist.ff(q)
            sr, ce, d, hold = map(value, (cell.sr, cell.ce, cell.d, cell.q))
            want = np.where(sr, int(cell.kind is FfKind.SET), np.where(ce, d, hold))
            got = ff.tables[base : base + size]
            bad += [(q, int(a)) for a in np.flatnonzero(got != want)]
    return bad


@pytest.fixture(scope="session")
def folded_table_mismatches():
    """The folded-table check of :func:`_folded_table_mismatches`."""
    return _folded_table_mismatches
