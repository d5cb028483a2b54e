"""The committed case list: every case keeps the bytes of its digest.

Each case is one ``transpin`` command line.  Its digest is the sha256 of
its exit code, standard output, standard error and output file, so a
change that moves one bit of any report, map or verify line shows here.
The list runs twice: in process, and in one child process whose numpy
dispatch is restricted to the baseline and AVX2 features, so output that
depends on the host's SIMD level (AVX-512 ``exp``, say) fails the second
half on a host that has it.  The ``verify`` lines print ``measured`` to four
digits only, so ``tests/check_values.json`` also pins ``repr(measured)`` and
``repr(tolerance)`` of every verify check, in both halves.

A change that moves output bits on purpose regenerates the digests with
``PYTHONPATH=src python tests/test_case_list.py``, which rewrites
``tests/case_digests.json`` and ``tests/check_values.json`` in place and
prints to stderr the cases whose digest changed and the checks whose values
changed, the list the change names.  ``PYTHONPATH=src python
tests/test_case_list.py --diff`` prints the cases and checks that differ from
the committed ones (one missing from its file counts) and exits 1 if any
does, without writing.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__

from transpin import cli, verify

DIGESTS = Path(__file__).with_name("case_digests.json")
CHECK_VALUES = Path(__file__).with_name("check_values.json")

_GUIDED_MODES = [("TM", 1, 1), ("TM", 2, 1), ("TM", 3, 2), ("TM", 3, 7),
                 ("TE", 1, 0), ("TE", 1, 1), ("TE", 2, 1), ("TE", 3, 0),
                 ("TE", 10, 0), ("TE", 48, 5)]
_MAP = "--output map.csv"

CASES = [
    *(f"report --family {family} --m {m} --n {n}{extra}"
      for family, m, n in _GUIDED_MODES
      for extra in ("", " --direction -1 --combine-spins",
                    " --n-quanta 3 --omega-ratio 1.1")),
    "report --kind surface",
    "report --kind surface --x-max-kappa 12",
    "report --kind surface --x-max-kappa 35.5",
    "report --kind surface --x-max-kappa 1e4",
    "report --kind surface --x-max-kappa 8",
    "report --kind surface --combine-spins --eta 2 --phi-deg 70",
    "report --kind surface --n-quanta 2",
    "report --kind surface --direction -1",
    "report --units natural --family TM --m 1 --n 1 --n-quanta 1",
    "report --family TM --m 1 --n 1 --omega-ratio 0.8",
    "report --family TE --m 1 --n 1 --a 3e100 --b 3e100",
    "report --family TM --m 1 --n 1 --amplitude 1e100",
    "report --family TE --m 1 --n 0 --length 1e-100 --amplitude 3e-100",
    "report --family TM --m 48 --n 48",
    "report --family TE --m 200 --n 3",
    "report --family TM --m 1 --n 1 --normalize paper-figures",
    "report --family TE --m 1 --n 0 --normalize paper-figures",
    f"spinmap --family TE --m 1 --n 0 --a 0.0229 --b 0.0102 --normalize paper-figures "
    f"--nx 41 --ny 21 {_MAP}",
    f"spinmap --family TM --m 2 --n 1 --nx 201 --ny 101 {_MAP}",
    f"spinmap --family TE --m 3 --n 2 --combine-spins --direction -1 {_MAP}",
    f"spinmap --family TE --m 1 --n 0 --nx 1001 --ny 5 {_MAP}",
    f"spinmap --family TE --m 3 --n 0 --direction -1 {_MAP}",
    f"spinmap --family TE --m 2 --n 0 --combine-spins {_MAP}",
    f"spinmap --family TE --m 1 --n 0 --omega-ratio 0.8 {_MAP}",
    f"spinmap --family TM --m 1 --n 1 --omega-ratio 0.8 {_MAP}",
    f"spinmap --kind surface --nx 1001 --ny 2 {_MAP}",
    f"spinmap --kind surface --family TM --x-max-kappa 7.5 --z-periods 2.5 "
    f"--nx 301 --ny 11 {_MAP}",
    f"spinmap --family TM --m 1 --n 1 --nx 2 --ny 3 {_MAP}",
    f"spinmap --kind surface --nx 2 --ny 4 {_MAP}",
    f"spinmap --family TM --m 1 --n 1 --a 1e-7 --b 5e-8 --nx 2 --ny 3 {_MAP}",
    f"spinmap --family TM --m 2 --n 1 --nx 4097 --ny 3 {_MAP}",
    f"spinmap --family TM --m 1 --n 1 --nx 3 --ny 3000 {_MAP}",
    "verify",
    "verify --filter guided",
]

#: the features a restricted child may keep: the x86 baseline and AVX2 levels
_AVX2_AND_BELOW = ("SSE", "SSE2", "SSE3", "SSSE3", "SSE41", "POPCNT", "SSE42",
                   "AVX", "F16C", "FMA3", "AVX2", "X86_V2", "X86_V3")


def case_digest(case: str) -> str:
    """Run ``transpin <case>`` in a fresh directory and hash what it leaves."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(shlex.split(case))
            for warning in caught:
                err.write(f"{warning.category.__name__}: {warning.message}\n")
            path = Path("map.csv")
            written = path.read_bytes() if path.exists() else b""
        finally:
            os.chdir(cwd)
    digest = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(),
                 err.getvalue().encode(), written):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def all_digests() -> dict[str, str]:
    return {case: case_digest(case) for case in CASES}


def moved_cases(digests: dict[str, str]) -> list[str]:
    """The cases whose digest differs from the committed one, in list order."""
    expected = json.loads(DIGESTS.read_text())
    return [case for case in CASES if digests[case] != expected.get(case)]


def check_values() -> dict[str, str]:
    """``repr(measured)`` and ``repr(tolerance)`` of every verify check, by name."""
    return {r.name: f"{r.measured!r} {r.tolerance!r}" for r in verify.run_checks()}


def moved_checks(values: dict[str, str]) -> list[str]:
    """The checks whose values differ from the committed ones, in catalogue order."""
    expected = json.loads(CHECK_VALUES.read_text())
    return [name for name in values if values[name] != expected.get(name)]


def _enabled_features() -> set[str]:
    return {name for name, on in __cpu_features__.items() if on}


def test_every_case_has_a_digest():
    assert list(json.loads(DIGESTS.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_case_keeps_its_digest(case):
    assert case_digest(case) == json.loads(DIGESTS.read_text())[case]


def test_every_check_keeps_its_full_precision_values():
    values = check_values()
    assert list(json.loads(CHECK_VALUES.read_text())) == list(values) == verify.check_names()
    assert moved_checks(values) == []


def test_cases_keep_their_digests_under_avx2_dispatch():
    native = _enabled_features()
    allowed = [*__cpu_baseline__, *sorted(native.intersection(_AVX2_AND_BELOW))]
    # numpy will not import with both variables set, so drop an inherited disable list
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    env["NPY_ENABLE_CPU_FEATURES"] = " ".join(dict.fromkeys(allowed))
    proc = subprocess.run([sys.executable, __file__, "--features"], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    features, digests, values = json.loads(proc.stdout)
    if not native - set(features):
        warnings.warn("the AVX2-restricted dispatch enables every feature this "
                      "host has, so it could detect nothing here")
    assert moved_cases(digests) == []
    assert moved_checks(values) == []


def test_moved_cases_names_each_changed_digest_in_list_order():
    digests = json.loads(DIGESTS.read_text())
    assert moved_cases(digests) == []
    changed = {**digests, CASES[-1]: "0" * 64, CASES[0]: "1" * 64}
    assert moved_cases(changed) == [CASES[0], CASES[-1]]
    values = json.loads(CHECK_VALUES.read_text())
    names = list(values)
    assert moved_checks(values) == []
    assert moved_checks({**values, names[-1]: "nan nan", names[0]: "0.0 1.0"}) == [
        names[0], names[-1]]


if __name__ == "__main__":
    digests, values = all_digests(), check_values()
    if sys.argv[1:] == ["--features"]:
        json.dump([sorted(_enabled_features()), digests, values], sys.stdout)
    elif sys.argv[1:] == ["--diff"]:
        moved = moved_cases(digests) + moved_checks(values)
        for line in moved:
            print(line)
        sys.exit(1 if moved else 0)
    else:
        for line in moved_cases(digests) + moved_checks(values):
            print(line, file=sys.stderr)
        DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
        CHECK_VALUES.write_text(json.dumps(values, indent=1) + "\n")
