"""The package runs on the standard library alone, and a simulated run on
less of it.

networkx is a test oracle and a benchmark dependency, never a runtime one:
its import costs every run, forked seed worker and live process about half
of ``import repro`` and 13 MB of RSS.  A fresh interpreter with networkx
made unimportable imports every entry-point module and runs a short
simulated Chord scenario; an import of networkx anywhere under ``src/``
fails there, at its import site.

Asyncio and, through it, ssl, socket, selectors and subprocess cost
about 40 ms of import and 7 MB of RSS that no simulated run uses.  A
second interpreter imports only the simulation's entry points, runs the
same spec and finds none of them in ``sys.modules``.  The live socket
network (:mod:`repro.transport.udp`) imports asyncio only when a socket is
opened on an event loop, and logging only on its first warning: a third
interpreter frames Chord messages, one of them fragmented, between two
socket networks over an in-memory pipe and finds neither, nor the apps.

The same run also leaves out ``hashlib``, its OpenSSL backend
``_hashlib`` (about 3.7 MB of RSS) and ``difflib``: keys hash with the
builtin ``_sha1``, and only the registry's missing-spec diagnosis uses
``difflib``.

A bundled spec is generated once per host: after one interpreter has
run Chord, a second compiles Chord's cached module and loads neither the
DSL front end nor the generator.

The package fronts ``repro``, ``repro.runtime``, ``repro.eval``,
``repro.codegen`` and ``repro.dsl`` are lazy (PEP 562), so the emulator,
the topology, the packet and the event kernel import without the code
generator, the DSL, the evaluation harness or the agent runtime; the
``emulator_*`` benchmark workloads run on those four alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

RUN_CHORD = r"""
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel

spec = ScenarioSpec(
    name="stdlib-footprint", agents=resolve_protocol("chord"), num_nodes=6,
    duration=20.0, seed=1,
    models=(ChurnModel(join="staggered", join_spacing=0.5),
            WorkloadModel(kind="route", source=-1, start=10.0, packets=5,
                          gap=1.0)))
result = repro.run(spec)
assert result.metrics, "the run reported no metrics"
"""

WITHOUT_NETWORKX = r"""
import sys
sys.modules["networkx"] = None      # any `import networkx` now raises

import repro
import repro.eval.fuzz
import repro.eval.scenario
import repro.live.cluster
import repro.transport.udp
""" + RUN_CHORD

SIMULATION_ONLY = r"""
import sys

import repro
import repro.eval.fuzz
import repro.eval.scenario
import repro.transport
""" + RUN_CHORD + r"""
live_only = ("asyncio", "ssl", "socket", "selectors", "subprocess")
loaded = [name for name in live_only if name in sys.modules]
assert not loaded, f"a simulated run loaded {loaded}"
"""

WITHOUT_OPENSSL = r"""
import sys

import repro
""" + RUN_CHORD + r"""
loaded = [name for name in ("hashlib", "_hashlib", "difflib")
          if name in sys.modules]
assert not loaded, f"a simulated run loaded {loaded}"
"""

FRAMING_ONLY = r"""
import sys

from repro.network.packet import Packet
from repro.protocols import chord_agent
from repro.runtime.messages import Message, WireCodec
from repro.transport.base import Datagram
from repro.transport.udp import SocketUdpNetwork


class Pipe:
    def __init__(self, peer, endpoint):
        self.peer, self.endpoint = peer, endpoint

    def sendto(self, data, endpoint):
        self.peer.datagram_received(data, self.endpoint)


agent = chord_agent()
types = {kind.name: kind for kind in agent.MESSAGE_TYPES}
codec = WireCodec.for_agents([agent])
endpoints = {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}
near = SocketUdpNetwork(1, endpoints, codec)
far = SocketUdpNetwork(2, endpoints, codec)
near.connection_made(Pipe(far, endpoints[1]))
far.connection_made(Pipe(near, endpoints[2]))
echoed = []
near.set_receive_callback(1, echoed.append)
far.set_receive_callback(2, lambda packet: far.send(Packet(
    src=2, dst=1, payload=packet.payload, size=packet.size)))

big = bytes(range(256)) * 275        # 70 400 bytes: fragmented both ways
for sent in (
        Message(type=types["lookup"], protocol="chord",
                fields={"target": 7, "origin": 1, "purpose": 0, "idx": 3,
                        "hops": 0}),
        Message(type=types["data"], protocol="chord",
                fields={"target": 7, "hops": 0}, payload=big,
                payload_size=len(big))):
    near.send(Packet(src=1, dst=2, payload=Datagram("CTRL", sent, sent.size),
                     size=sent.size))
    got = echoed.pop().payload.payload
    assert (got.type, got.fields, got.payload) == \
        (sent.type, sent.fields, sent.payload), got
assert near.fragments_sent == far.fragments_sent == 2
assert near.decode_errors == far.decode_errors == 0

unused = ("asyncio", "ssl", "socket", "selectors", "subprocess",
          "concurrent.futures", "logging", "repro.apps.kv",
          "repro.apps.pubsub")
loaded = [name for name in unused if name in sys.modules]
assert not loaded, f"framing over a pipe loaded {loaded}"
"""

FROM_THE_CACHE = r"""
import sys

import repro
""" + RUN_CHORD + r"""
generating = ("repro.dsl.ast", "repro.dsl.lexer", "repro.dsl.parser",
              "repro.dsl.validator", "repro.codegen.generator", "_hashlib")
loaded = [name for name in generating if name in sys.modules]
assert not loaded, f"a run from the cached module loaded {loaded}"
"""

NETWORK_ONLY = r"""
import sys

import repro.network.emulator
import repro.network.packet
import repro.network.topology
import repro.runtime.engine

unused = ("repro.codegen", "repro.dsl", "repro.eval", "repro.runtime.agent")
loaded = [name for name in unused if name in sys.modules]
assert not loaded, f"the network substrate loaded {loaded}"
"""


def _run(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, cwd=REPO_ROOT, env=env)
    assert completed.returncode == 0, completed.stderr


def test_the_package_imports_and_runs_without_networkx():
    _run(WITHOUT_NETWORKX)


def test_a_simulated_run_does_not_load_the_socket_stack():
    _run(SIMULATION_ONLY)


def test_framing_without_an_event_loop_loads_no_asyncio_or_logging():
    _run(FRAMING_ONLY)


def test_a_simulated_run_does_not_load_openssl_or_difflib():
    _run(WITHOUT_OPENSSL)


def test_a_second_run_loads_no_parser_or_generator():
    _run("import repro\n" + RUN_CHORD)     # the first run writes the cache
    _run(FROM_THE_CACHE)


def test_the_network_substrate_loads_no_protocol_plane():
    _run(NETWORK_ONLY)


def test_the_socket_module_re_exports_the_best_effort_transport():
    # The benchmark tracer wraps UdpTransport's methods through
    # repro.transport.udp; a second class there would go unwrapped.
    from repro.transport import best_effort, udp

    assert udp.UdpTransport is best_effort.UdpTransport
