"""The file layer: the three parsers under truncation and byte writes, and a
writer interrupted before it replaces its target.

The fuzz runs derandomized with a bounded number of examples, like
test_properties.py. A case passes when the corrupted file loads or raises
DataFormatError; any other exception fails it. A corrupted container may
still load samples that fail validate(): checking them on load is open."""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civsf.datamodel import Sample, load_container, save_container
from civsf.errors import DataFormatError
from civsf.harness.checkpoint import load_checkpoint, save_checkpoint
from civsf.harness.ppm import read_ppm, write_ppm

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_sample(t: int, extras: bool, seed: int) -> Sample:
    rng = np.random.default_rng(seed)
    weather = np.zeros((12, 5), dtype=np.float32)
    weather[:, 1] = 1.0
    return Sample(images=rng.uniform(0, 1, (t, 6, 2, 2)).astype(np.float32),
                  doys=np.arange(1, t + 1, dtype=np.int64) * 3, weather=weather,
                  start_doy=1,
                  soil=rng.uniform(0, 1, t).astype(np.float32) if extras else None,
                  crops=np.ones((2, 2), dtype=np.uint8) if extras else None)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """kind -> (bytes of a valid file, the parser that reads it)."""
    root = tmp_path_factory.mktemp("valid")
    save_container(str(root / "c"), [small_sample(3, True, 0), small_sample(2, False, 1)])
    save_checkpoint(str(root / "k"), {"a": np.ones((2, 3), dtype=np.float32),
                                      "b": np.float32(2.0), "c": np.zeros(4, dtype=np.float32)},
                    {"framework": "ci-vsf", "seed": "0"})
    write_ppm(str(root / "p"), np.random.default_rng(2).uniform(0, 1, (6, 3, 4)),
              config_hash="abc", seed=1)
    parsers = {"container": ("c", load_container), "checkpoint": ("k", load_checkpoint),
               "ppm": ("p", read_ppm)}
    return {kind: ((root / name).read_bytes(), parse)
            for kind, (name, parse) in parsers.items()}


def corrupt(blob: bytes, data) -> bytes:
    """A truncation (a third of the cases) or one to three random byte writes."""
    if data.draw(st.integers(0, 2)) == 0:
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.integers(0, 255))
    return bytes(out)


@pytest.mark.parametrize("kind", ["container", "checkpoint", "ppm"])
@FUZZ
@given(data=st.data())
def test_corrupted_file_loads_or_raises_data_format_error(valid_files, tmp_path_factory,
                                                         kind, data):
    blob, parse = valid_files[kind]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
    path.write_bytes(corrupt(blob, data))
    try:
        parse(str(path))
    except DataFormatError as e:
        assert e.offset is not None


OLD = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
NEW = {"w": np.ones((4, 4), dtype=np.float32)}


def test_writer_raising_before_replace_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, OLD, {"phase": "1a"})
    before = Path(path).read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, NEW, {"phase": "2"})
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    tensors, meta = load_checkpoint(path)
    assert meta == {"phase": "1a"} and np.array_equal(tensors["w"], OLD["w"])
    assert os.listdir(tmp_path) == ["run.ckpt"]


def test_writer_killed_before_replace_keeps_the_old_checkpoint(tmp_path):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, OLD, {"phase": "1a"})
    before = Path(path).read_bytes()
    script = ("import os, signal, sys\n"
              "import numpy as np\n"
              "from civsf.harness.checkpoint import save_checkpoint\n"
              "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
              "save_checkpoint(sys.argv[1], {'w': np.ones((4, 4), dtype=np.float32)},"
              " {'phase': '2'})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert Path(path).read_bytes() == before
    assert load_checkpoint(path)[1] == {"phase": "1a"}
    # the kill struck between the write and the replace: the whole new file
    # is left beside the target under a temporary name
    stale = sorted(set(os.listdir(tmp_path)) - {"run.ckpt"})
    assert len(stale) == 1 and re.fullmatch(r"run\.ckpt\.\d+\.tmp", stale[0])
    tensors, meta = load_checkpoint(str(tmp_path / stale[0]))
    assert meta == {"phase": "2"} and np.array_equal(tensors["w"], NEW["w"])
