"""tools/diff_reports.py, loaded from its file (tools/ is no package).  No
test here starts a process: the tool's runner is replaced by one that
fails."""

import importlib.util
from pathlib import Path

import pytest

from hopfgalois import cli
from hopfgalois.fixtures import load_bundled, parse

ROOT = Path(__file__).parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "diff_reports", ROOT / "tools" / "diff_reports.py")
diff_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_reports)


def _load(name):
    return parse(ROOT / name) if name.endswith(".hgx") else load_bundled(name)


def test_the_theorem11_table_matches_the_field_fixtures():
    # the tool imports nothing from hopfgalois, so it lists each field
    # fixture's structure count and ideals itself
    table = dict(zip(diff_reports.FIELD_FIXTURES, diff_reports.THEOREM11))
    assert len(table) == len(diff_reports.THEOREM11) == 8
    for name, (count, ideals) in table.items():
        fx = _load(name)
        assert (len(fx.structures()), list(fx.ideals)) == (count, ideals), name


def test_every_listed_command_parses():
    commands = list(diff_reports.commands())
    theorem11 = [argv for argv in commands if "theorem11" in argv]
    descend = [argv for argv in commands if "descend" in argv]
    freeness = [argv for argv in commands if "freeness" in argv]
    assert (len(commands), len(theorem11), len(descend), len(freeness)) == \
        (245, 55, 41, 46)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    # the default structure and every --n, for each of the 9 ideals
    assert sum("--n" not in argv for argv in theorem11) == 9
    assert ["--json", "theorem11", "tests/data/zeta16.hgx", "--ideal", "OL",
            "--n", "25"] in theorem11
    # every structure descended, and searched on each of its ideals
    assert ["--json", "descend", "tests/data/zeta16.hgx", "--n", "25"] \
        in descend
    assert ["--json", "freeness", "s3sextic", "--n", "4", "--ideal", "OE"] \
        in freeness


@pytest.mark.parametrize("shape", ["missing", "empty", "no cli.py"])
def test_a_directory_that_is_not_a_checkout_is_refused(tmp_path, capsys,
                                                       monkeypatch, shape):
    # a missing directory raised FileNotFoundError, an empty one ran every
    # command and reported each as differing; where the package is
    # installed, a directory without src/ would have imported that copy
    def never(checkout, argv):
        raise AssertionError("a command ran")
    monkeypatch.setattr(diff_reports, "run", never)
    directory = tmp_path / "parent"
    if shape != "missing":
        directory.mkdir()
    if shape == "no cli.py":
        (directory / "src" / "hopfgalois").mkdir(parents=True)
    for argv in ([str(directory)], [str(ROOT), str(directory)]):
        assert diff_reports.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"not a hopfgalois checkout: {directory.resolve()}\n"
