"""Output bytes pinned by sha256: every synth task and a short train-not run.

The synth generators' constants and the Adam update feed every dataset and
every trained network, so a refactor that touches them must leave these
digests alone. run.cfg is left out, since it echoes the output path, and
the .otm config echo is left out, since it lists every config key; the
train-not digests cover its parameter payload, loss CSV and stdout.
"""

import hashlib

import numpy as np
import pytest

from otconvert.cli import entry
from otconvert.fileio import read_not_pair
from otconvert.synth import TASK_NAMES


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(capsys, *argv) -> str:
    code = entry(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


_SYNTH_DIGESTS = {
    "gauss_shift": {
        "dataset.spec": "69f38a0a438fa8b5aeb4116819fef06d550a767e69e795e5b919c964ccced8fa",
        "source.otf": "ab20e2cb5f70f2a59c943dc8215eb4ad1d156abb7841c85c0da9a70a068d9659",
        "target.otf": "28a64ac631603e8e4052a21b24be45ff975856959eaceba04180143fb88c23bc",
        "truth.json": "f65430dc97dd0883e279831f730574268d63a88654642fca2a53364d0bc5c45c",
    },
    "gauss_affine": {
        "dataset.spec": "69f38a0a438fa8b5aeb4116819fef06d550a767e69e795e5b919c964ccced8fa",
        "source.otf": "7e84aa48a5e529197ed6e86e38d468cc13915b3ab0fc88d4c837d3ac7f8ec7c6",
        "target.otf": "cce74b56e0990035cb74efb3adc8c0d0ef606df1625642253a3ed47af5956d8e",
        "truth.json": "336c2336e6f74007be4637e54dc817595616106a38926b0481e264a7ba6137ba",
    },
    "clusters_outlier": {
        "dataset.spec": "69f38a0a438fa8b5aeb4116819fef06d550a767e69e795e5b919c964ccced8fa",
        "source.otf": "fdb84227d1f2c017d9f1a629c2cdc6a45ffb240ea14116de7745945f813cba16",
        "target.otf": "508b74ec9fbf03595763e6730b15b008368e8e6a66bf2ce83c78934eaa33f04a",
        "truth.json": "a2cb8d8e8f669f771701316026a24002e32f69c47c1774fe77a84e7ea400da40",
    },
    "two_conditions": {
        "dataset.spec": "554f13cc5414b069111cc7e8f03916378cae8a83782b36cb6fa4df45f472de38",
        "minus_source.otf": "0c4f07453450dd0169244e47ed7f9b56937b35c97b098be40e140ed4f8894940",
        "minus_target.otf": "b3cddeb99e3fc513153b4e6dfc16504cc79d4d77c8bafbcb24b1352fbdf7b75e",
        "plus_source.otf": "dbf64813b29e6851210c92d40c661935f5a1535d062a985c798cb5fff4b5cfbf",
        "plus_target.otf": "6f07db07025e47adfbd3f14a767f63a730e34f852ab6c9470a27cd0a02524bfa",
        "truth.json": "fa363618baf88ebd00f11ea113bc59e803c12ea8dab9184437015e5bf6b628ae",
    },
}


@pytest.mark.parametrize("task", TASK_NAMES)
def test_synth_output_bytes(task, tmp_path, capsys):
    out = tmp_path / task
    _run(capsys, "synth", "--task", task, "--n", "12", "--dim", "3", "--seed", "5",
         "--out-dir", str(out))
    digests = {path.name: _sha256(path.read_bytes())
               for path in sorted(out.iterdir()) if path.name != "run.cfg"}
    assert digests == _SYNTH_DIGESTS[task]


_TRAIN_NOT_CFG = ("command = train-not\n"
                  "seed = 3\n"
                  "dataset_spec = data/dataset.spec\n"
                  "out_model = pair.otm\n"
                  "loss_trace = loss.csv\n"
                  "hidden_dims = 8,8\n"
                  "batch_size = 16\n"
                  "inner_steps = 3\n"
                  "total_outer_iterations = 20\n"
                  "checkpoint_every = 10\n"
                  "eval_samples = 8\n")

_TRAIN_NOT_DIGESTS = {
    "params": "9b635eb954403d21a0f75c476e2bacb8b71b350d96cf43e0e04cd601ca15908b",
    "loss.csv": "0605a8c5932b58e5d45f19f9d12400a076185de2655fc4ef72d15fcfe546e9d1",
    "stdout": "4ab0278d00c26db709a587035d09ba12730ce3408cd72cf90257e84bb96cd553",
}


def test_train_not_output_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, "synth", "--task", "two_conditions", "--n", "60", "--dim", "2",
         "--seed", "4", "--out-dir", "data")
    (tmp_path / "not.cfg").write_text(_TRAIN_NOT_CFG)
    stdout = _run(capsys, "train-not", "--config", "not.cfg")
    pair, _ = read_not_pair("pair.otm")
    params = np.concatenate([pair.map_model.params, pair.potential_model.params])
    digests = {"params": _sha256(params.astype("<f8").tobytes()),
               "loss.csv": _sha256((tmp_path / "loss.csv").read_bytes()),
               "stdout": _sha256(stdout.encode("utf-8"))}
    assert digests == _TRAIN_NOT_DIGESTS
