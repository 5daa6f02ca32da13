"""The switch's record stream, pinned over a grid of points.

Each point runs ``run_executions`` for 60 deliveries at p_mem = 0.999 and
seed 1; the pin is the sha256 of its ``(duration_rounds, pairs_consumed)``
sequence and the ``math.fsum`` of its fidelities.  The integers follow from
the draw order alone and match with ``==``; the fidelities' last bits
follow the ledgers' order and the platform's ``pow`` (see
``test_golden.py``), so they match to 1e-12 relative.
A change of the engine's state that keeps its draws and its records passes
unedited; each negative control below is a single slip such a change could
make, and must fail some pin.
"""

import hashlib
import inspect
import math
import textwrap

import pytest

from ghzdist import switch
from ghzdist.params import SimParams

DELIVERIES = 60

# (n_end_nodes, q_link, q_bsm): (sha256 of the integer stream, fsum of the fidelities)
PINS = {
    (2, 0.01, 0.6): ("3a7529dc2b2cdfada16d74fa5822f5de91677491077b800567ec3326d8153bb7", 53.33356999619158),
    (2, 0.01, 0.95): ("7f30fa57a943889277554be93847e300aee58f001d50cb618dbcb429d4ca8eee", 52.501863797191824),
    (2, 0.01, 1.0): ("855701fdfb627565f90378fe3855dc0be66953b78b07223041981f0af1ec8f32", 51.966076000399845),
    (2, 0.3, 0.6): ("b407c4d62f9ca91be0217844a6841816f9d4efc6547a5c10f0e05165016ab41f", 59.76842016556722),
    (2, 0.3, 0.95): ("a62094d4106289144271bd7e137dd1703e6381beec51833964d178e5dd325260", 59.72235231367474),
    (2, 0.3, 1.0): ("8ce77137f728cd2ddec0fc5ea0ebf65e37ed50b5ffacfd8a2962404ab97c0dd6", 59.743495406203905),
    (2, 1.0, 0.6): ("0d3e8cfc8f6db08bd37268160b9a01904de508a7dcaecce5adbde1052fc8450f", 60.0),
    (2, 1.0, 0.95): ("f788890e347bb5c7e966dcf296d6f3aeff5015cdfcbe455a018559bf61d4afe3", 60.0),
    (2, 1.0, 1.0): ("616834706f7055de3e1fa048e4c1963210df530906c59a7d2bd40218c6509a9e", 60.0),
    (3, 0.01, 0.6): ("b2827a2ee4d693196d74ab8c7c7a4957b4c01edc296596c723b8a566d1007894", 37.32464668106454),
    (3, 0.01, 0.95): ("125e3dda604fc13780eb9d533c389b380ef5aaf72dee32c4b8385967f2a42a60", 40.03920546535793),
    (3, 0.01, 1.0): ("e35b3b96e2b763afe5ca9ec8401b161b2c48b5cf0113bfb6049d4aa85c4a56f9", 40.5365824520099),
    (3, 0.3, 0.6): ("f387c68cbef68a0840b352cd9d21117483d99eeb72c7bbc1d2c225690293dd0f", 59.057238585264905),
    (3, 0.3, 0.95): ("5c73fc2d2d2da372a275ac1fa15c0065de776710085d46b995a49790c17de0fa", 59.2905223208597),
    (3, 0.3, 1.0): ("5d45bb23665a1cc0811a6169e9a15da3865af8439f8433fdc55d2629f99691b2", 59.3214662422541),
    (3, 1.0, 0.6): ("85d298fd0c4e114dc4269800be64a06717b06d4c80b9e909657c93fc4cbd53db", 59.66369346465135),
    (3, 1.0, 0.95): ("71733d1e166021914f45297344e2cbe062e8c006a013904dac0d0297b9fd0b08", 59.727633669643716),
    (3, 1.0, 1.0): ("3b9d882d0422c4213572807c303dbd99fc3c0d1c1a9bd13910ba2d0dec9243b9", 59.73061422056978),
    (5, 0.01, 0.6): ("d0b80c54652bb02e6d46eeb196cbe5321fca2e94e03b38a0033b4a6810a270d5", 21.812508013906857),
    (5, 0.01, 0.95): ("512c7228319b9c022cede75aac15ca167c618006337556c31bfa8c1fe8758554", 27.385440776582037),
    (5, 0.01, 1.0): ("118d75b44a788a99a7c15bdbfc89999cb8242d8ae84d54476328f183994d3ea0", 30.357888620048016),
    (5, 0.3, 0.6): ("a0826e46b16c650ec183013f4a85b7a21941cb6035f24f90ada9c1335c22fdfd", 57.5965169276328),
    (5, 0.3, 0.95): ("8f20f9bde9bacd21e7f9f340b1890742dde3ca8c9c47bb764ea1b44e2083bc5d", 58.27611724068388),
    (5, 0.3, 1.0): ("1c099f126a4f17f5c2ef24aee7479ad4a0d8c9ddbec83643e671883850931586", 58.32498606488814),
    (5, 1.0, 0.6): ("e30543868097f294280c4cdab146f22a948c123ced6d3481661d1ace0a737c87", 59.27137168272011),
    (5, 1.0, 0.95): ("eaa5f0003467e0fc38474e4b5b50f1b9d1e314f7e4dc0ede2325ac4b62e6517e", 59.61211593284259),
    (5, 1.0, 1.0): ("6353d9dd5725f0e0f0c502f403e0bae90695c370d624a424041d90d7d5725b5e", 59.64110793248057),
    (8, 0.01, 0.6): ("0bb2e090ac15c8a4c63708bcf53275cc37caf26a8739145b17de4cb024496a43", 12.223207001806326),
    (8, 0.01, 0.95): ("302d4f8381811281c4ae1422bdd12419aa01765fa331bddcef5d71d9aa905730", 17.91522065947289),
    (8, 0.01, 1.0): ("75568a27fd87bae55a9dec6361ab32befd4f04143d80957e2df4531b0d87bd52", 17.004410919658806),
    (8, 0.3, 0.6): ("3b7147e85d83a95dcbdd419ba99789bf6b72b0fa410fc5457da65377ad1085c0", 55.3425422671984),
    (8, 0.3, 0.95): ("c44ac1ae5e8c32baa8ab12e4b45927607b9662dcbb78e3973fd7e804ab93da37", 56.79644299573339),
    (8, 0.3, 1.0): ("6223d33868e2539d5cc40f6655d5a44921dfd242b5fadec5bed11b05681934d2", 56.984225413884644),
    (8, 1.0, 0.6): ("f07fade8b271efcc473fedeb6f02927f015fb949e85b413ea77cf0de663702ae", 58.862505880252144),
    (8, 1.0, 0.95): ("c8f6f4db36436b6569103df22429927b326618022297c83e7219edb441adf703", 59.409546519404195),
    (8, 1.0, 1.0): ("dc43bf362aab7f2407ecc53b1c5f54dee36694b0f220b5b25f77395d9920ae17", 59.462575549590305),
    (11, 0.01, 0.6): ("2970793023740d747d6bdb30061b040b5dc196e16cbc275df113a1b55751b591", 5.825414249711097),
    (11, 0.01, 0.95): ("96effa26fcbdb4429343f18fe30e11fd36e1be27de257734cbc85fccb9e8418c", 10.312363703063305),
    (11, 0.01, 1.0): ("54014d09f3a9f09976684927c76a8538127e96a24438a649e3713afce02e6a9e", 10.716411392462579),
    (11, 0.3, 0.6): ("e934285929e88d7968cb7c4e60e77cc312d533346453f415e86ec04cd04e9c92", 53.719798574724216),
    (11, 0.3, 0.95): ("bebe3185919218bfa239b44dc94a6fc26bd6cad8aae7c05b527583776bb3a894", 55.08122846242605),
    (11, 0.3, 1.0): ("b2888e1ffea2fac45f828a10d186fe82532c809c77d1c5266103399f7c0c39a4", 55.51541359494105),
    (11, 1.0, 0.6): ("660c9c98a2fa2a1b93d081ae7c7231a7015280565302a89229e2c0a7ab9883d5", 58.080751811338935),
    (11, 1.0, 0.95): ("92a3f0e559c874d240d5fa1248615ec50b084cc919cf6c7b74b7453c9b2fea5d", 58.99745011772486),
    (11, 1.0, 1.0): ("8173efb466b3bb2bf6d2a496c035c3213ebb14e0e5b45654eae7ebc6f314cfff", 59.37348225328051),
}


def stream(n: int, q_link: float, q_bsm: float) -> tuple[str, float]:
    params = SimParams(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, p_mem=0.999, seed=1)
    records = switch.run_executions(params, DELIVERIES)
    ints = repr([(r.duration_rounds, r.pairs_consumed) for r in records])
    return hashlib.sha256(ints.encode()).hexdigest(), math.fsum(r.fidelity for r in records)


class Stalled(RuntimeError):
    """A run took far more link events than any pinned point needs."""


def matches(point) -> bool:
    """Whether the point's stream equals its pin; a run that stalls does not."""
    try:
        digest, total = stream(*point)
    except Stalled:
        return False
    pinned_digest, pinned_total = PINS[point]
    return digest == pinned_digest and total == pytest.approx(pinned_total, rel=1e-12)


@pytest.mark.parametrize("point", list(PINS), ids=[f"n{n}-q{q}-bsm{b}" for n, q, b in PINS])
def test_stream_matches_pin(point):
    assert matches(point)


def edited(function, marker: str, replacement: str):
    """``function`` (a module function or a method) recompiled in its module
    with ``marker``, which one source line holds, replaced by
    ``replacement``."""
    lines = textwrap.dedent(inspect.getsource(function)).splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if marker in line]
    assert len(hits) == 1, hits
    lines[hits[0]] = lines[hits[0]].replace(marker, replacement)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile("".join(lines), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def stall_guard(monkeypatch, budget: int = 20_000) -> None:
    """Raise ``Stalled`` once ``budget`` link-event calls were made since the
    last stall, ten times what the slowest pinned point (1,913 calls at
    N = 11, q_link 0.01, q_bsm 0.6) makes."""
    phase = switch.advance_to_link_event
    calls = [0]

    def guarded(state, params, rng):
        calls[0] += 1
        if calls[0] > budget:
            calls[0] = 0
            raise Stalled
        return phase(state, params, rng)

    monkeypatch.setattr(switch, "advance_to_link_event", guarded)


def test_first_valid_pair_always_fails_the_pins(monkeypatch):
    # the choice among several valid pairs is drawn, not the first one taken
    bsms = edited(switch.do_switch_bsms, "valid[int(rng.random() * len(valid))]", "valid[0]")
    monkeypatch.setattr(switch, "do_switch_bsms", bsms)
    assert not all(matches(point) for point in PINS)


def test_coin_drawn_at_certain_success_fails_the_pins(monkeypatch):
    # at q_bsm = 1 a measurement draws no coin, so no later draw moves
    bsms = edited(switch.do_switch_bsms, "params.q_bsm < 1.0 and rng.random()", "rng.random()")
    monkeypatch.setattr(switch, "do_switch_bsms", bsms)
    assert not all(matches(point) for point in PINS)


def test_owner_kept_across_a_delivery_stalls(monkeypatch):
    # a delivered group still holds its nodes: they stay one cluster, no
    # later pair is valid, and the next delivery never comes
    kept = edited(switch.NetworkState.remove, "self.owner[v] = None", "pass")
    monkeypatch.setattr(switch.NetworkState, "remove", kept)
    stall_guard(monkeypatch)
    for point in list(PINS)[:3]:
        with pytest.raises(Stalled):
            stream(*point)


def test_free_nodes_never_valid_fail_the_pins(monkeypatch):
    # two nodes that hold no group qubit are both owned by None: read as
    # one group, they never form a valid pair
    bsms = edited(switch.do_switch_bsms, "owner[a] is None or owner[a] is not owner[b]",
                  "owner[a] is not owner[b]")
    monkeypatch.setattr(switch, "do_switch_bsms", bsms)
    stall_guard(monkeypatch)
    assert not any(matches(point) for point in list(PINS)[:3])


def test_absorbed_pair_arriving_on_raises(monkeypatch):
    # the absorbed pair, not the group that took it in, arrives at the
    # pair's next node: where that node is held too, as it can be from
    # N = 4 on, a stale group joins the ledgers
    fusions = edited(switch.do_fusions, "pair = held", "pass")
    monkeypatch.setattr(switch, "do_fusions", fusions)
    stall_guard(monkeypatch)
    for point in [point for point in PINS if point[0] == 5][:3]:
        with pytest.raises(switch.ProtocolInvariantError, match="not an n-qubit GHZ"):
            stream(*point)


def test_free_node_not_taking_the_pair_fails_the_pins(monkeypatch):
    # a free node that does not take the arriving group still reads as
    # free, so the pair's qubit there belongs to no cluster
    fusions = edited(switch.do_fusions, "owner[node] = pair", "pass")
    monkeypatch.setattr(switch, "do_fusions", fusions)
    stall_guard(monkeypatch)
    assert not any(matches(point) for point in list(PINS)[:3])


def test_stall_guard_passes_the_engine(monkeypatch):
    # the slowest point passes under the guard
    stall_guard(monkeypatch)
    slowest = max(PINS, key=lambda point: (point[0], -point[1], -point[2]))
    assert matches(slowest)
