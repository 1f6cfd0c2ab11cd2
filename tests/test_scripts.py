"""Smoke runs of the command line scripts under scripts/."""

import os
import re
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _run(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_orbit_profile_labels_the_three_orbits():
    proc = _run("orbit_profile.py", "--m", "1/2", "--points=-1,0,1")
    assert proc.returncode == 0, proc.stderr
    labels = [line.split()[6] for line in proc.stdout.splitlines()[1:]]
    assert labels == ["M-", "M0", "M+"]


def test_quick_family_sweep_passes():
    proc = _run("run_family_sweep.py", "--depth", "quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "sweep: ALL PASS" and len(lines) == 9


def _untimed(stdout):
    return re.sub(r"\(\s*[0-9.]+s\)", "", stdout)


@pytest.mark.parametrize("name, args, joined, shown", [
    ("orbit_profile.py", ["--m", "-5/2"], ["--m=-5/2"], "m = -5/2;"),
    ("orbit_profile.py", ["--m", "1/2", "--points", "-1,1"], ["--m", "1/2", "--points=-1,1"],
     "s =    -1"),
    ("run_family_sweep.py", ["--depth", "quick", "--m", "-5/2"],
     ["--depth", "quick", "--m=-5/2"], "m =  -5/2"),
], ids=["orbit-m", "orbit-points", "sweep-m"])
def test_scripts_take_negative_option_values(name, args, joined, shown):
    proc = _run(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert shown in proc.stdout
    assert _untimed(proc.stdout) == _untimed(_run(name, *joined).stdout)


@pytest.mark.parametrize("name, args", [
    ("orbit_profile.py", ["--m", "1"]),
    ("orbit_profile.py", ["--m", "1/2", "--points", "1,,2"]),
    ("run_family_sweep.py", ["--depth", "quick", "--m", "x"]),
    # tau = 2 * 10^800 does not fit a float
    ("orbit_profile.py", ["--m", "1/2", "--points", "1,1e400"]),
    # TAKEN stands for an existing file, which --json cannot create a directory at
    ("run_family_sweep.py", ["--depth", "quick", "--json", "TAKEN"]),
], ids=["orbit-m-1", "orbit-empty-point", "sweep-m-x", "orbit-point-1e400", "sweep-json-taken"])
def test_scripts_reject_bad_input_exit_2(name, args, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    proc = _run(name, *[str(taken) if a == "TAKEN" else a for a in args])
    assert proc.returncode == 2 and not proc.stdout
    assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("name, args", [
    ("orbit_profile.py", ["--m", "1/2"]),
    ("run_family_sweep.py", ["--depth", "quick"]),
], ids=["orbit-profile", "sweep"])
def test_scripts_reader_closing_the_pipe_early_exit_0(name, args):
    # as `| head -1` does once it has its line: the read end is closed
    # before the first write, so every write finds it closed
    proc = subprocess.Popen([sys.executable, os.path.join(SCRIPTS, name), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
