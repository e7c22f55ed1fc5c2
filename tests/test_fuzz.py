"""Seeded mutation fuzzing of the bank readers through the CLI, in process."""
from __future__ import annotations

import io
import time

import numpy as np

from conftest import bank_from_arrays, unit_rows
from hierknn import bank_save, cli

CASES = 300  # 2 * CASES mutations run, and more than CASES must be caught
# values a corrupt u32 or u64 field is set to, besides a random one
EXTREMES = (0, 1, 2, 3, 7, 255, 0xFFFF, 2**31 - 1, 2**31, 2**32 - 1, 2**40, 2**63, 2**64 - 1)


def _fields(data: bytes) -> list[tuple[int, int]]:
    """(offset, width) of every u32 and u64 in the header, and of each id offset."""
    count = int.from_bytes(data[12:20], "little")
    return [(4, 4), (8, 4), (12, 8), (52, 8)] + [(60 + 8 * i, 8) for i in range(count + 1)]


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` with one mutation: flipped bytes, a cut, or a u32/u64 overwritten."""
    out = bytearray(data)
    kind = rng.integers(3)
    if kind == 0:
        for pos in rng.integers(0, len(out), rng.integers(1, 5)):
            out[pos] ^= int(rng.integers(1, 256))
    elif kind == 1:
        del out[rng.integers(0, len(out)):]
    else:
        fields = _fields(data)
        at, width = fields[rng.integers(len(fields))]
        limit = 1 << (8 * width)
        value = int(rng.choice(EXTREMES)) if rng.random() < 0.7 else int(rng.integers(0, 2**31))
        out[at:at + width] = (value % limit).to_bytes(width, "little")
    return bytes(out)


def test_bank_readers_exit_0_or_2_on_mutated_files(tax, tmp_path, capsys):
    """Every one of 2 * CASES mutations of a bank makes ``bank info`` exit 0
    or 2, never raise, within 10 s for all cases."""
    rng = np.random.default_rng(1313)
    n, dim = 12, 4
    ids = [f"e{i}-{'éß'[i % 2] * (i % 3)}" for i in range(n)]
    bank = bank_from_arrays(tax, unit_rows(rng, n, dim), [i % tax.leaf_count for i in range(n)],
                            ids=ids)
    buf = io.BytesIO()
    bank_save(bank, buf)
    data = buf.getvalue()
    path = tmp_path / "bank.hbnk"
    codes = {0: 0, 2: 0}
    start = time.perf_counter()
    for case in range(2 * CASES):
        path.write_bytes(_mutate(data, rng))
        code = cli.main(["bank", "info", str(path)])
        assert code in (0, 2), case
        codes[code] += 1
    capsys.readouterr()
    assert time.perf_counter() - start < 10.0
    assert codes[2] > CASES  # most mutations are caught, not read as a bank
