"""tools/same_outputs.py: per-op output digests of a workload, compared across checkouts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

#: A stand-in checkout: one workload whose op "b" gives what ``VALUE`` says.
STUB_WORKLOADS = '''
from confhess.errors import ConfhessError

VALUE = {value!r}


class Stub:
    def prepare(self):
        pass

    def inputs(self, seed):
        return seed

    def ops(self, inp):
        def fails():
            raise ConfhessError("no answer")
        return [Op("a", lambda: [inp, 1.5]), Op("b", lambda: VALUE), Op("c", fails)]


class Op:
    def __init__(self, label, fn):
        self.label, self.fn = label, fn


WORKLOADS = {{"stub": Stub}}
'''


def stub_checkout(path, value):
    (path / "bench").mkdir(parents=True)
    (path / "src" / "confhess").mkdir(parents=True)
    (path / "src" / "confhess" / "__init__.py").write_text("")
    (path / "src" / "confhess" / "errors.py").write_text(
        "class ConfhessError(Exception):\n    pass\n")
    (path / "bench" / "run.py").write_text((ROOT / "bench" / "run.py").read_text())
    (path / "bench" / "workloads.py").write_text(STUB_WORKLOADS.format(value=value))
    return path


def test_compare_names_every_op_of_either_side():
    parent = {"a": "00", "b": "11", "c": "22"}
    change = {"a": "00", "b": "12", "d": "33"}
    assert same_outputs.compare(parent, change) == [
        ("a", "equal"), ("b", "differs"), ("c", "only in parent"), ("d", "only in change")]
    assert same_outputs.compare(parent, dict(parent)) == [(op, "equal") for op in parent]


def test_the_checkout_against_itself_is_equal(capsys):
    argv = [str(ROOT), str(ROOT), "--workload", "solver_geometry", "--seed", "1"]
    assert same_outputs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 2 and all(line.startswith("equal ") for line in lines[:-1])
    assert lines[-1] == "solver_geometry seed 1: every op equal"


def test_a_changed_op_exits_1_and_a_broken_round_2(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", 2.0)
    change = stub_checkout(tmp_path / "change", 2.0 + 2.0 ** -51)
    argv = ["--workload", "stub", "--seed", "7"]
    digests = same_outputs.digests(parent, "stub", 7)
    assert sorted(digests) == ["a", "b", "c"]
    assert digests["c"] == "raised ConfhessError: no answer"
    assert same_outputs.main([str(parent), str(parent), *argv]) == 0
    capsys.readouterr()
    assert same_outputs.main([str(parent), str(change), *argv]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["equal           a", "differs         b", "equal           c"]
    assert same_outputs.main([str(parent), str(change), "--workload", "none", "--seed", "7"]) == 2
    assert "KeyError" in capsys.readouterr().err
