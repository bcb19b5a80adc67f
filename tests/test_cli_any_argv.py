"""One property over the whole CLI: whatever the subcommand and its argv,
opscan exits 0, 2, 3, 4 or 5, no traceback escapes, a failure prints one
message line and a success prints nothing to stderr."""

import contextlib
import io
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan.cli import OUT_ROOT_ENV, main

TINY = {"emb_size": 4, "hidden_size": 4, "n_layers": 1, "head_hidden": 4, "batch_size": 2,
        "bptt": 4, "epochs": 1}


def run(argv) -> tuple[int, str]:
    """main(argv) in-process: (exit code, stderr). A warning counts as a line
    of stderr, as it would be outside pytest."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)


# The inputs a flag may name, by kind, under the fixture's directory.
KINDS = {"random bytes": "random.bin", "empty dir": "empty", "prep dir": "prep",
         "corpus": "synth/corpus.jsonl", "LM checkpoint": "train-lm/lm_best.ckpt",
         "classifier checkpoint": "train-clf/clf_best.ckpt", "config": "tiny.json",
         "hex": "code.hex", "predictions": "preds.jsonl", "missing": "missing"}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """{kind: path} of KINDS, built once at a tiny shape, and of "out", the
    directory every run writes to."""
    root = tmp_path_factory.mktemp("any-argv")
    (root / "empty").mkdir()
    (root / "random.bin").write_bytes(np.random.default_rng(0).bytes(64))
    (root / "tiny.json").write_text(json.dumps(TINY))
    (root / "code.hex").write_text("6001600201331450\n")
    (root / "preds.jsonl").write_text("".join(
        json.dumps({"actual": k % 4 + 1, "predicted": k % 3 + 1,
                    "scores": [0.1, 0.2, 0.3, 0.4]}) + "\n" for k in range(8)))
    for argv in (["synth", "--per-class", "4", "--mean-len", "24", "--jitter", "4",
                  "--plants", "1"],
                 ["prep", "--corpus", root / KINDS["corpus"]],
                 ["train-lm", "--data", root / "prep"],
                 ["train-clf", "--data", root / "prep", "--lm", root / KINDS["LM checkpoint"]]):
        assert run(argv + ["--config", root / "tiny.json", "--out", root / argv[0]]) == (0, "")
    return {"out": root / "out", **{kind: root / name for kind, name in KINDS.items()}}


# A flag's values: (good ones, bad ones). A good value is one the flag
# accepts, and ABSENT leaves the flag out.
ABSENT, GIVEN = None, "given"  # GIVEN: a switch that takes no value is given
EDGES = ["-1", "0", "-0.0", "nan", "inf", "-inf", "x", ""]
HUGE = ["1e300", str(10**12)]


def number(*good):
    return [*good, ABSENT], EDGES + HUGE


def size(*good):
    """A number that sets how much work a run does. A huge one asks for a
    very long run, not a bad one, and so does the default of --steps or
    --epochs: a size is never huge, and is left out only as a bad draw."""
    return list(good), EDGES + [ABSENT]


def choice(*good):
    return [*good, ABSENT], EDGES


def path(kind, required=False):
    """A file or directory of this kind; bad: any other kind, or text."""
    bad = [k for k in KINDS if k != kind] + EDGES
    return ([kind], bad + [ABSENT]) if required else ([kind, ABSENT], bad)


FLAGS = {
    "synth": {"--per-class": size("2", "4"), "--mean-len": number("24"),
              "--jitter": number("1", "3"), "--plants": number("1", "3"),
              "--dup-normals": number("1", "3")},
    "disasm": {"--bytecode": choice("6001600201", "0x6001"), "--input": path("hex"),
               "--collapse-push": ([GIVEN, ABSENT], [GIVEN, ABSENT])},
    "prep": {"--corpus": path("corpus", required=True), "--min-freq": number("1", "3")},
    "lr-find": {"--data": path("prep dir", required=True), "--model": choice("lm", "clf"),
                "--lr-start": number("1e-3", "0.05"), "--lr-end": number("1"),
                "--steps": size("10", "12"), "--batch-size": number("1", "3")},
    "train-lm": {"--data": path("prep dir", required=True), "--epochs": size("1", "2"),
                 "--batch-size": number("1", "3"), "--bptt": number("1", "3"),
                 "--max-lr": number("1e-3", "0.05")},
    "train-clf": {"--data": path("prep dir", required=True), "--lm": path("LM checkpoint"),
                  "--epochs": size("1", "2"), "--batch-size": number("1", "3"),
                  "--lr-hi": number("1e-3", "0.05"), "--epochs-per-stage": number("1", "3")},
    "eval": {"--predictions": path("predictions"), "--checkpoint": path("classifier checkpoint"),
             "--data": path("prep dir"), "--split": choice("train", "valid", "test")},
    "predict": {"--checkpoint": path("classifier checkpoint", required=True),
                "--bytecode": choice("6001600201", "0x6001"), "--input": path("hex")},
}
# Left out, --out is the output root, the same directory.
COMMON = {"--seed": number("1", "3"), "--config": path("config"),
          "--out": (["out", ABSENT], ["random bytes"])}


@st.composite
def argvs(draw, paths):
    """A subcommand and its flags. Each flag is given once, or twice with two
    values, and each value is good five times in six."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, (good, bad) in {**FLAGS[command], **COMMON}.items():
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 2]), label=f"{flag} times")):
            is_good = draw(st.sampled_from([True] * 5 + [False]), label=f"{flag} good")
            value = draw(st.sampled_from(good if is_good else bad), label=flag)
            if value == GIVEN:
                argv.append(flag)
            elif value is not ABSENT:
                argv.append(f"{flag}={paths.get(value, value)}")
    return argv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_contract_code_and_one_line(paths, data):
    argv = data.draw(argvs(paths), label="argv")
    with mock.patch.dict(os.environ, {OUT_ROOT_ENV: str(paths["out"])}):
        code, err = run(argv)
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        # argparse puts its usage, wrapped onto indented lines, before the message
        messages = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert len(messages) == 1, err


@pytest.mark.parametrize("argv", [["train-lm", "--max-lr=1e300"], ["train-clf", "--lr-hi=1e300"]])
def test_an_overflowing_run_prints_its_abort_line_alone(paths, argv):
    """Weights driven to inf and NaN on purpose: the abort line is all of
    stderr, with no floating-point warning from numpy before it."""
    code, err = run(argv + [f"--data={paths['prep dir']}", f"--config={paths['config']}",
                            f"--out={paths['out']}"])
    assert code == 5 and err.startswith("training aborted:") and err.count("\n") == 1, err
