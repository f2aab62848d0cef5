"""Every benchmark step gives the report it gave when its digest was
pinned.

The steps are those of perfbench/workloads.py: every step of qm2-pass,
planes and zn13 at seed 0, and of qm2-fail at seeds 0-11, 74 in all.
Each outcome is reduced to a sha256: of the Report.to_json() text with
timings off, or, for a refusal, of its class, message, witness and
attached report.  A change that alters any status, witness or refusal
text on these steps fails here, so a refactor that claims identical
reports is checked instead of compared by hand."""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench.workloads, imported without writing bytecode under
    perfbench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module("perfbench.workloads")
    finally:
        sys.path.remove(str(ROOT))
        sys.dont_write_bytecode = saved


def _outcome(step, ctx):
    try:
        report = step.call(ctx)
    except Exception as exc:  # a refusal: its text is part of the outcome
        attached = getattr(exc, "report", None)
        return {"class": type(exc).__name__, "message": str(exc),
                "witness": getattr(exc, "witness", None),
                "report": attached and attached.to_json()}
    return report.to_json()


def step_digests(workload, seed):
    build, steps = _workloads().WORKLOADS[workload](seed)
    ctx = build()
    return [hashlib.sha256(json.dumps(_outcome(step, ctx), sort_keys=True)
                           .encode()).hexdigest() for step in steps]


DIGESTS = {
    ("planes", 0): [
        "0ce7779e3cc42f5e3817214e9c1041f1b0259d459a8684393273d56cfa76aafa",
        "1c05a11503bda557521d2395c899b430707a84b9cb8c1458e4bf3a4d8b6d3e33",
        "d97cd8d78f912ab10fbb8b548dd5dc8751827a9e4a3b0bfecf3958762b407f98",
        "6ff54480fd17bcded5b6056152972d5498577bcb0d57fb3389fda33f25c6a78c",
        "fde3a113175b72a9da5a84a6f2c390649511451cd006aacbf4bbc7316e62d652",
        "fde3a113175b72a9da5a84a6f2c390649511451cd006aacbf4bbc7316e62d652",
        "0062ada1209259ebe469fb1ba122f9d98718daf6cf16ecfd0519aaa5526f5a96",
    ],
    ("qm2-fail", 0): [
        "321e47345fd3a5fa52b1a3960fdb10d25a176267fa723a0dda951bbe41d3c00c",
        "f947d91b64710a1b3b2f0b619cde8185c3a9908abbe1f97184be03357e0a5542",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "0967e56c4b17b85e66ca11d56bff37d95cce05896b6b09d2dfa99ab5f58c3ed9",
        "4b94ca6fdee39921c972c06db136e7e60cbe1d5a7de38e00fa9c66db0351ec32",
    ],
    ("qm2-fail", 1): [
        "2e3a1bab1d678488b936a96fac6ce1185d2ebf1638b103948decfea5e542cf30",
        "9537ec3226c66a135598f1ce353e3e73940222e8b83ad403014a0340fda5c297",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "0967e56c4b17b85e66ca11d56bff37d95cce05896b6b09d2dfa99ab5f58c3ed9",
        "4b94ca6fdee39921c972c06db136e7e60cbe1d5a7de38e00fa9c66db0351ec32",
    ],
    ("qm2-fail", 2): [
        "bdfc7d509eb0ca171367ff03a06d8f07cace72272b53a4e68fd4501c9eefa910",
        "6ee0328ac8e6b054db1d6eb3cac7cdb79dbc76551778eb0767faac27332a0c85",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "0967e56c4b17b85e66ca11d56bff37d95cce05896b6b09d2dfa99ab5f58c3ed9",
        "4b94ca6fdee39921c972c06db136e7e60cbe1d5a7de38e00fa9c66db0351ec32",
    ],
    ("qm2-fail", 3): [
        "2e3a1bab1d678488b936a96fac6ce1185d2ebf1638b103948decfea5e542cf30",
        "9537ec3226c66a135598f1ce353e3e73940222e8b83ad403014a0340fda5c297",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "0967e56c4b17b85e66ca11d56bff37d95cce05896b6b09d2dfa99ab5f58c3ed9",
        "4b94ca6fdee39921c972c06db136e7e60cbe1d5a7de38e00fa9c66db0351ec32",
    ],
    ("qm2-fail", 4): [
        "2e3a1bab1d678488b936a96fac6ce1185d2ebf1638b103948decfea5e542cf30",
        "f947d91b64710a1b3b2f0b619cde8185c3a9908abbe1f97184be03357e0a5542",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "0967e56c4b17b85e66ca11d56bff37d95cce05896b6b09d2dfa99ab5f58c3ed9",
        "4b94ca6fdee39921c972c06db136e7e60cbe1d5a7de38e00fa9c66db0351ec32",
    ],
    ("qm2-fail", 5): [
        "cbbbc3ff04e8ccb8630b5a148e751b5713d09b362c78e4583f282bef635bef16",
        "9537ec3226c66a135598f1ce353e3e73940222e8b83ad403014a0340fda5c297",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "5fc8098f0d74e0bae6ed07bb3d72d2f02921b803ecefec79fbc31cf685a5c742",
        "0ab8b382121539426a1817ac494f4f343c58c3b9b6e0b0197f0a127c6fd0a8de",
    ],
    ("qm2-fail", 6): [
        "bdfc7d509eb0ca171367ff03a06d8f07cace72272b53a4e68fd4501c9eefa910",
        "f947d91b64710a1b3b2f0b619cde8185c3a9908abbe1f97184be03357e0a5542",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "5fc8098f0d74e0bae6ed07bb3d72d2f02921b803ecefec79fbc31cf685a5c742",
        "0ab8b382121539426a1817ac494f4f343c58c3b9b6e0b0197f0a127c6fd0a8de",
    ],
    ("qm2-fail", 7): [
        "cbbbc3ff04e8ccb8630b5a148e751b5713d09b362c78e4583f282bef635bef16",
        "6ee0328ac8e6b054db1d6eb3cac7cdb79dbc76551778eb0767faac27332a0c85",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "2f4cc609f5fa8375edbef5fb75635296aeb9e8b78e5e262c38a92b10a8c5a469",
        "dba12beb030f5787ad17c5a8ac69c30814da35b91de4af91d3accea2e9751fab",
    ],
    ("qm2-fail", 8): [
        "2e3a1bab1d678488b936a96fac6ce1185d2ebf1638b103948decfea5e542cf30",
        "f947d91b64710a1b3b2f0b619cde8185c3a9908abbe1f97184be03357e0a5542",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "2f4cc609f5fa8375edbef5fb75635296aeb9e8b78e5e262c38a92b10a8c5a469",
        "dba12beb030f5787ad17c5a8ac69c30814da35b91de4af91d3accea2e9751fab",
    ],
    ("qm2-fail", 9): [
        "321e47345fd3a5fa52b1a3960fdb10d25a176267fa723a0dda951bbe41d3c00c",
        "9537ec3226c66a135598f1ce353e3e73940222e8b83ad403014a0340fda5c297",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "5fc8098f0d74e0bae6ed07bb3d72d2f02921b803ecefec79fbc31cf685a5c742",
        "0ab8b382121539426a1817ac494f4f343c58c3b9b6e0b0197f0a127c6fd0a8de",
    ],
    ("qm2-fail", 10): [
        "bdfc7d509eb0ca171367ff03a06d8f07cace72272b53a4e68fd4501c9eefa910",
        "f947d91b64710a1b3b2f0b619cde8185c3a9908abbe1f97184be03357e0a5542",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "2f4cc609f5fa8375edbef5fb75635296aeb9e8b78e5e262c38a92b10a8c5a469",
        "dba12beb030f5787ad17c5a8ac69c30814da35b91de4af91d3accea2e9751fab",
    ],
    ("qm2-fail", 11): [
        "321e47345fd3a5fa52b1a3960fdb10d25a176267fa723a0dda951bbe41d3c00c",
        "9537ec3226c66a135598f1ce353e3e73940222e8b83ad403014a0340fda5c297",
        "a8064c4ebbf178bcb8addb950e63205dadbf9c8fbb04e1f56c1294c329d5d93c",
        "2f4cc609f5fa8375edbef5fb75635296aeb9e8b78e5e262c38a92b10a8c5a469",
        "dba12beb030f5787ad17c5a8ac69c30814da35b91de4af91d3accea2e9751fab",
    ],
    ("qm2-pass", 0): [
        "8b657c57a93183ec540a7ae5a9ca4ca8b1f7382d2769c5fce0d7564608f73503",
        "204d0f0d08d47f782854fd73cc7452ac9f13e789ee5020b43afe44f507769f33",
        "957d6e9f75a04efceb8dae1948e20cf53556cfaf93e93635dc766f20ed473259",
        "e98e178aeec693083f74e9d974a7ff750228017ace3b71f847fa5470745621fc",
    ],
    ("zn13", 0): [
        "929c7e319fd0d97db73443c405db071184649d2246140ff9d65f63ceeeb6d367",
        "31d09a398eca1dc5432d0c3b3c34a82c340968be45759d8542bd73df6029a253",
        "929c7e319fd0d97db73443c405db071184649d2246140ff9d65f63ceeeb6d367",
    ],
}


@pytest.mark.parametrize("workload,seed", sorted(DIGESTS))
def test_step_reports_match_pinned_digests(workload, seed):
    assert step_digests(workload, seed) == DIGESTS[workload, seed]
