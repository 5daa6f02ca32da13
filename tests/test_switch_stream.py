"""The switch's record stream, pinned over a grid of points.

Each point runs ``run_executions`` for 60 deliveries at p_mem = 0.999 and
seed 1; the pin is the sha256 of its ``(duration_rounds, pairs_consumed)``
sequence and the ``math.fsum`` of its fidelities.  The integers follow from
the draw order alone and match with ``==``; the fidelities go through
numpy's reductions (see ``test_golden.py``) and match to 1e-12 relative.
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
    (2, 0.01, 0.6): ("6cc214c4cefd5e9b0f2deb53cfc8a40b20507d6618df97793d9116641c442d72", 53.390986164581136),
    (2, 0.01, 0.95): ("5fe1d5b75d006af1b429d21496cdcfa948593e2a434bc7e798d10048430d5e69", 51.435772962236115),
    (2, 0.01, 1.0): ("992ccd3e6936d5b0246a91b73501f8c06e1b9b38b6d8c7e3a1f823bd37a03265", 52.46541418202668),
    (2, 0.3, 0.6): ("02b58fced4ce2dd228ffcd8a0ab659e44bbdec08c831ea2148deec954e3ab6d3", 59.784768818034344),
    (2, 0.3, 0.95): ("b5e802b8af43a255ef0dc9e23b549ab2ad0b0a8237896aa76ad3c89d8c684da1", 59.752145830841954),
    (2, 0.3, 1.0): ("6685574c1356b4e2c826f61b0b4de7d9ef6477646312ed41706c22157de8e4ce", 59.723833635529424),
    (2, 1.0, 0.6): ("efcb52bad34dfa558e9ee3b3b69b84083af21f98b1427fa52e94b11da7e209a3", 60.0),
    (2, 1.0, 0.95): ("4c65c5de94b25ad9b6ff1cec5ea0a4d51789c400d8712b49e5bcd0113cedd98e", 60.0),
    (2, 1.0, 1.0): ("616834706f7055de3e1fa048e4c1963210df530906c59a7d2bd40218c6509a9e", 60.0),
    (3, 0.01, 0.6): ("0fa15a549f9571acde0b7a25dc25eb1b7156aeafb45bb16c7b4d13d7dcc5b724", 39.39021959076639),
    (3, 0.01, 0.95): ("e46da97d4f0b812b91d0599ec5e7ba61082beb5c15982d0cbc7de4c491edfabd", 39.3788266210453),
    (3, 0.01, 1.0): ("3f2393e0988678be2edec3915a32e87e9495abc864795f1e0a4ac0e7ef59c0dc", 43.2466778671205),
    (3, 0.3, 0.6): ("1a3d2d790ff322a6d186463183221033f433cb94c6f626448555e9ca46d59e13", 58.85638661228985),
    (3, 0.3, 0.95): ("efc54170d54014747a6e0976407ad479c26d227f0946d0d27658e743012ffbfe", 59.23704975578236),
    (3, 0.3, 1.0): ("2a7ca98de2a1e30a7f9a2a9ced80fa66b4cbf5b456561f84d2efa19cd079c30d", 59.330549331528445),
    (3, 1.0, 0.6): ("ba14368fc667e0ef6cd20f1cecd36918f9a6abdcdef53ece5702aaa3a5d333e9", 59.65472968358428),
    (3, 1.0, 0.95): ("b7597d5acae1c96f9b940d3b1d9961e5c2f00364804b7edf15d33fc14186db9c", 59.72912344610587),
    (3, 1.0, 1.0): ("3b9d882d0422c4213572807c303dbd99fc3c0d1c1a9bd13910ba2d0dec9243b9", 59.73061422056978),
    (5, 0.01, 0.6): ("88f96f77f796c393ba85be55be4385342a4a12a9db1223832c55460584427c9b", 21.70981271727342),
    (5, 0.01, 0.95): ("fc4ee50c8d92ce0e09d836e882f727ed7ef802ebc897d18fb3e8134ff7e84542", 26.656914843734498),
    (5, 0.01, 1.0): ("3039f5c3d0edfb90c50d278c392167c0ca4d85f8e38d033d29d501b29845b6c8", 30.194646096534047),
    (5, 0.3, 0.6): ("b2746a688d36bc7674d81b3ab2e5368208f0924bbe95f49582f17277c8c2321a", 57.550789636727714),
    (5, 0.3, 0.95): ("f077e1f850247b0959c1d3024c275fe48a8adfdd4743a3b931c286127935822d", 58.23821405166246),
    (5, 0.3, 1.0): ("cfeffd5350f8852ecd11c9e5fd0fa6e84d8b0d9354a3b7ec854da29d3586a244", 58.62684232801978),
    (5, 1.0, 0.6): ("2c0356ca87359ae064d88a857878dbb631ad1f983cec7110a5b7d4896ed27a32", 59.33853183008895),
    (5, 1.0, 0.95): ("01b339e5cb8289b6db8e9b0a100c3f739e760f668084d76c1d63fff174b693ab", 59.5883096704443),
    (5, 1.0, 1.0): ("6353d9dd5725f0e0f0c502f403e0bae90695c370d624a424041d90d7d5725b5e", 59.64110793248057),
    (8, 0.01, 0.6): ("9e57a4416df111bb2ce77b40889d3045b86913860b24696a270a87c4daef45d7", 12.676257781334733),
    (8, 0.01, 0.95): ("963c808c01e761a06f064d4f0291057e8b1ed378eacb02bb387d379c69002aad", 16.88295914029858),
    (8, 0.01, 1.0): ("39c56196f6d78f241d10b2cda02660e61c42889022f3960dfdbc5c1ab8f93938", 15.45069206029636),
    (8, 0.3, 0.6): ("f866ee1831a2da445ffd3349708c82115b88b2b2c18f786010f74320f78f0f2d", 55.84470338771928),
    (8, 0.3, 0.95): ("cb7cf4607dc5df8619b609d1a217915c6abc59ef741a2fd85e768dfe7772c787", 57.080790905210435),
    (8, 0.3, 1.0): ("7cb5640b00206fc706029d014332d5c686dd3706417b18c63958ab28c96edd99", 57.2878794540371),
    (8, 1.0, 0.6): ("83f610cdc61def16d0c897b984a10798a1d6754ba011ef65b553341e8a58f43e", 58.75621412104357),
    (8, 1.0, 0.95): ("c41790a5a3a84ed51110139bbefb0a03dfd73ef55221071d45c4367b689a05c1", 59.415443273094546),
    (8, 1.0, 1.0): ("dc43bf362aab7f2407ecc53b1c5f54dee36694b0f220b5b25f77395d9920ae17", 59.46257505208469),
    (11, 0.01, 0.6): ("5c7d4a71e346bc7c22c470c6943f352d55b195c8ec4618e497696bfee0698fe9", 5.314486758056735),
    (11, 0.01, 0.95): ("85f8ab5d1dd43a5aa494ec210f8e5a4f675b9d0bdfbad6ee5054a344cd9a4f9d", 9.111017860725248),
    (11, 0.01, 1.0): ("f23772f2b1e8229eae0f5bc3099bdf94b1f43914c908f72df9a67308f81e0d91", 10.194101296387503),
    (11, 0.3, 0.6): ("e5a640e1440d94b2820a47092e1780a4b087a0b62742b47f16ac0aa5afda2ffd", 52.58041644812076),
    (11, 0.3, 0.95): ("0902959eebd1be81e5fbf2cb63c11b9aa30dcebe55c4518d1a73a8d97f63a299", 55.998937045920854),
    (11, 0.3, 1.0): ("978c8268bbcb703012526b30a8518808539e05919bdff100bbeccb94abaaac7a", 55.58795692421012),
    (11, 1.0, 0.6): ("a0a8d35029633aff96f3686ab84a2af3a6d8ca2e12e26e3d192d40cb2925a66e", 58.037823487180745),
    (11, 1.0, 0.95): ("c74015471651259f70794a4c2a2e85f0e6e814bb01d1ecbc1c8282579e1aebb6", 58.80005910281664),
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


def without_line(function, marker: str):
    """``function`` (a module function or a method) recompiled in its module
    without the one source line holding ``marker``."""
    lines = textwrap.dedent(inspect.getsource(function)).splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if marker in line]
    assert len(hits) == 1, hits
    del lines[hits[0]]
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile("".join(lines), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def stall_guard(monkeypatch, budget: int = 20_000) -> None:
    """Raise ``Stalled`` once ``budget`` link-event calls were made since the
    last stall, ten times what the slowest pinned point (1,947 calls at
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


def test_skipped_born_draw_fails_the_pins(monkeypatch):
    # the unused Born draw still moves the stream every later draw reads
    monkeypatch.setattr(
        switch, "do_switch_bsms", without_line(switch.do_switch_bsms, "rng.random()  # Born draw"))
    assert not all(matches(point) for point in PINS)


def test_labels_kept_across_a_delivery_fail_the_pins(monkeypatch):
    # a delivered group's nodes stay one cluster: no later pair is valid, so
    # the next delivery never comes
    kept = without_line(switch.NetworkState.remove, "self.label[v] = v")
    monkeypatch.setattr(switch.NetworkState, "remove", kept)
    stall_guard(monkeypatch)
    assert not any(matches(point) for point in list(PINS)[:3])


def test_stall_guard_passes_the_engine(monkeypatch):
    # the slowest point passes under the guard
    stall_guard(monkeypatch)
    slowest = max(PINS, key=lambda point: (point[0], -point[1], -point[2]))
    assert matches(slowest)
