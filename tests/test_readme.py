"""The README's examples run, and its command lines parse, as written."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from transpin import cli
from transpin.verify import check_names

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
# continuations joined, comments stripped
COMMANDS = [" ".join(line.split("#")[0].split())
            for block in SH_BLOCKS for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("transpin ")]
CONFIG_TEXT = re.search(r"<<'EOF'\n(.*?)^EOF$", TEXT[TEXT.index("### Configuration"):],
                        flags=re.DOTALL | re.MULTILINE)[1]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_line_parses(command):
    cli._build_parser().parse_args(shlex.split(command)[1:])


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_line_runs(command, tmp_path, monkeypatch, capsys):
    # in a fresh directory holding the config file the heredoc writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text(CONFIG_TEXT, encoding="utf-8")
    expected = 3 if "--inject-fault" in command else 0
    assert cli.main(shlex.split(command)[1:]) == expected, capsys.readouterr().err


def test_readme_config_example_is_accepted():
    keys = json.loads(CONFIG_TEXT)
    assert cli.RunConfig.from_sources(keys, {}).provided == set(keys)


def test_readme_counts_the_pinned_cases():
    digests = json.loads((README.parent / "tests" / "case_digests.json").read_text())
    count = re.search(r"`tests/test_case_list\.py` pins the bytes of (\d+) ", TEXT)
    assert int(count[1]) == len(digests)


def test_readme_counts_the_checks():
    count = re.search(r"catalogue of (\d+) physics and algebra checks", TEXT)
    assert int(count[1]) == len(check_names())


#: one command line per documented exit code; ``{tmp}`` is a fresh directory
_EXIT_ARGVS = {
    0: ["verify", "--filter", "fields"],
    1: ["report", "--kind", "foo"],
    2: ["spinmap", "--output", "{tmp}/no/such/dir/map.csv"],
    3: ["verify", "--inject-fault"],
}


def test_readme_exit_codes_are_the_codes_main_returns(tmp_path, capsys):
    section = TEXT[TEXT.index("### Exit codes"):]
    table = section[:section.index("\n## ")]
    assert [int(code) for code in re.findall(r"^\| (\d+) ", table, flags=re.MULTILINE)] \
        == list(_EXIT_ARGVS)
    for code, argv in _EXIT_ARGVS.items():
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == code, argv
