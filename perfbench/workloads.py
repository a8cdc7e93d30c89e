"""The three workloads: their set-up steps and the ops of one timed cycle.

Every op is one ``framefield`` CLI call, and its name is its slot in the
cycle.  Paths use three placeholders: ``{in}`` is the set-up directory,
``{out}`` the op's own output directory, and ``{cycle}`` the directory of
the current cycle, so an op can read what an earlier op of the same cycle
wrote (the cycle lists keep those dependencies in order).

Each workload runs every op group (verify, construct, experiment) at least
six times per cycle, so each group's latency has enough samples on every
workload.  A workload's own groups use the sizes that stress its layer;
the other groups run small ops.  The ops of different groups are
interleaved, so every group samples the whole timed region.

Sizes are fixed per workload; the seed changes only values (noise, delays,
paraunitary draws), never the amount of work, so run-to-run spread
measures the machine rather than the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GIB = 1 << 30

WORKLOADS = ("wide-sweep", "deep-signal", "construct")

GROUPS = {"verify": "verify", "pair": "construct", "family": "construct",
          "parseval": "experiment", "mixed": "experiment", "cascade": "experiment"}


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # verify | pair | family | parseval | mixed | cascade
    args: tuple
    expect: frozenset = frozenset({0})
    rlimit_as: int = 0
    spot: bool = True

    @property
    def group(self) -> str:
        return GROUPS[self.kind]


def op(name, *args, expect=(0,), rlimit_as=0, spot=True) -> Op:
    kind = args[2] if args[0] == "experiment" else args[0]
    return Op(name, kind, tuple(args), frozenset(expect), rlimit_as, spot)


def delay_factors(pu_seed: int) -> int:
    """Delay factors ``construct.seeded_paraunitary`` draws for this seed.

    Mirrors its first draw.  Two factors double a pair's cost, so each op
    slot keeps one factor count across workload seeds and cycles.
    """
    return int(np.random.default_rng([0x9A, pu_seed]).integers(1, 3))


def pu_seed(seed: int, slot: int, factors: int, cycle: int) -> int:
    """The ``cycle``-th paraunitary seed with ``factors`` delay factors,
    scanning upward from a start drawn from the workload seed and slot."""
    candidate = int(np.random.default_rng([0xF5, seed, slot]).integers(1 << 20))
    found = -1
    while True:
        if delay_factors(candidate) == factors:
            found += 1
            if found == cycle:
                return candidate
        candidate += 1


def _gen(p, c, name):
    return ("cli", ("gen", "haar", "--p", str(p), "--c", str(c), "--out", f"{{in}}/{name}"))


def setup_steps(workload: str, seed: int) -> list:
    """Child commands that make the inputs: ("cli", args) or ("build", args)."""
    if workload == "wide-sweep":
        return [
            _gen(3, 2, "haar9.json"),
            _gen(2, 4, "haar16.json"),
            _gen(5, 2, "haar25.json"),
            _gen(3, 3, "haar27.json"),
            _gen(5, 3, "haar125.json"),
            ("build", ("perturb", "--seed", str(seed),
                       "{in}/haar16.json", "{in}/pert16.json",
                       "{in}/haar25.json", "{in}/pert25.json",
                       "{in}/haar27.json", "{in}/pert27.json")),
            ("cli", ("pair", "--primal", "{in}/haar16.json", "--dual", "{in}/haar16.json",
                     "--seed", str(pu_seed(seed, 0, 1, 0)), "--out", "{in}/pair16.json")),
            ("build", ("split", "{in}/pair16.json", "{in}/primal16.json", "{in}/dual16.json")),
        ]
    if workload == "deep-signal":
        # supports q*delay + q: 2002, 2073 and 1004, covering depths 11, 7 and 5
        def build(what, name, p, c, delay):
            return ("build", (what, f"{{in}}/{name}", "--p", str(p), "--c", str(c),
                              "--delay", str(delay), "--seed", str(seed)))

        return [
            _gen(2, 1, "haar2.json"),
            build("long", "long2.json", 2, 1, 1000),
            build("long", "long3.json", 3, 1, 690),
            build("long", "long4.json", 2, 2, 250),
            build("longpair", "lpair3.json", 3, 1, 690),
        ]
    if workload == "construct":
        return [_gen(3, 2, "haar9.json"), _gen(2, 4, "haar16.json"), _gen(5, 2, "haar25.json")]
    raise ValueError(f"unknown workload {workload!r}")


def _verify(name, bank, *extra, **kw) -> Op:
    return op(name, "verify", bank, *extra, "--out", "{out}/report.json", **kw)


def _experiment(name, kind, source, *extra) -> Op:
    flag = "--pair" if kind == "mixed" else "--bank"
    return op(name, "experiment", "--kind", kind, flag, source, *extra, "--out", "{out}/exp.json")


def _pair(name, bank, pu) -> Op:
    return op(name, "pair", "--primal", bank, "--dual", bank, "--seed", str(pu),
              "--out", "{out}/pair.json")


def _family(name, bank, pu, size, **kw) -> Op:
    return op(name, "family", "--bank", bank, "--seed", str(pu), "--size", str(size),
              "--out-dir", "{out}/fam", **kw)


def _signal(size, levels, trials, seed):
    return ("--signal-size", str(size), "--levels", str(levels), "--trials", str(trials),
            "--seed", str(seed))


def _hat(levels, neg, pos):
    return ("--levels", str(levels), "--hat-neg", str(neg), "--hat-pos", str(pos))


def cycle_ops(workload: str, seed: int, cycle: int) -> list:
    """The ops of one timed cycle, in the order they run."""
    def pu(slot, factors):
        return pu_seed(seed, slot, factors, cycle)

    if workload == "wide-sweep":
        full = ("--checks", "uep,subqmf,polyphase")
        return [
            _verify("verify-haar16-d4", "{in}/haar16.json", "--depth", "4", *full),
            _pair("pair-9", "{in}/haar9.json", pu(1, 1)),
            _experiment("parseval-16", "parseval", "{in}/haar16.json", *_signal(3, 2, 4, seed)),
            _verify("verify-pert16-d4", "{in}/pert16.json", "--depth", "4", *full, expect=(1,)),
            _family("family-16-s3", "{in}/haar16.json", pu(2, 2), 3),
            _experiment("mixed-16", "mixed", "{in}/pair16.json", *_signal(3, 1, 4, seed)),
            _verify("verify-haar25-d3", "{in}/haar25.json", "--depth", "3", *full),
            _pair("pair-16", "{in}/haar16.json", pu(3, 1)),
            _experiment("cascade-16", "cascade", "{in}/haar16.json", *_hat(6, 2, 2)),
            _verify("verify-pert25-d3", "{in}/pert25.json", "--depth", "3", *full, expect=(1,)),
            _family("family-16-s2", "{in}/haar16.json", pu(4, 1), 2),
            _experiment("parseval-27", "parseval", "{in}/haar27.json", *_signal(3, 2, 2, seed)),
            # GF(27) at depth 3 runs two checks: with polyphase it would take a
            # quarter of the cycle on its own
            _verify("verify-haar27-d3", "{in}/haar27.json", "--depth", "3", "--checks", "uep,subqmf"),
            _family("family-25-s2", "{in}/haar25.json", pu(5, 1), 2),
            _experiment("mixed-9", "mixed", "{cycle}/pair-9/pair.json", *_signal(3, 1, 4, seed)),
            _verify("verify-pert27-d3", "{in}/pert27.json", "--depth", "3", "--checks", "uep,subqmf",
                    expect=(1,)),
            _family("family-27-s2", "{in}/haar27.json", pu(6, 1), 2),
            _experiment("cascade-27", "cascade", "{in}/haar27.json", *_hat(6, 1, 2)),
            _verify("verify-haar125", "{in}/haar125.json", *full, spot=False),
            _verify("verify-mixed-pair16", "{in}/primal16.json", "--checks", "mixed",
                    "--dual", "{in}/dual16.json"),
            _verify("verify-mixed-self16", "{in}/haar16.json", "--checks", "mixed",
                    "--dual", "{in}/haar16.json", expect=(1,)),
            # needs a ~4 GB gather; accepted outcomes are PASS or exit 3.  Never
            # run it without the address-space limit.
            _verify("verify-haar125-d2-budget", "{in}/haar125.json", "--depth", "2", *full,
                    expect=(0, 3), rlimit_as=3 * GIB, spot=False),
        ]
    if workload == "deep-signal":
        return [
            _verify("verify-long2-a", "{in}/long2.json"),
            _experiment("parseval-long2", "parseval", "{in}/long2.json", *_signal(14, 4, 1, seed)),
            _pair("pair-long4-a", "{in}/long4.json", pu(1, 1)),
            _verify("verify-long3-a", "{in}/long3.json"),
            _experiment("cascade-long3", "cascade", "{in}/long3.json", *_hat(12, 2, 4)),
            _family("family-long4-a", "{in}/long4.json", pu(2, 1), 2),
            _verify("verify-long4-a", "{in}/long4.json"),
            _experiment("mixed-lpair3", "mixed", "{in}/lpair3.json", *_signal(9, 3, 1, seed)),
            _pair("pair-long2", "{in}/long2.json", pu(3, 1)),
            _verify("verify-long2-b", "{in}/long2.json"),
            _experiment("cascade-haar2", "cascade", "{in}/haar2.json", *_hat(12, 8, 10)),
            _pair("pair-long4-b", "{in}/long4.json", pu(4, 1)),
            _verify("verify-long3-b", "{in}/long3.json"),
            _experiment("parseval-long4", "parseval", "{in}/long4.json", *_signal(6, 2, 1, seed)),
            _family("family-long3", "{in}/long3.json", pu(5, 1), 2),
            _verify("verify-long4-b", "{in}/long4.json"),
            _experiment("cascade-long4", "cascade", "{in}/long4.json", *_hat(12, 2, 4)),
            _family("family-long4-b", "{in}/long4.json", pu(6, 1), 2),
        ]
    if workload == "construct":
        fam16, fam25 = "{cycle}/family-16/fam", "{cycle}/family-25/fam"
        return [
            _pair("pair-9-1f", "{in}/haar9.json", pu(1, 1)),
            _family("family-16", "{in}/haar16.json", pu(6, 2), 3),
            _verify("verify-family16-1", f"{fam16}/family_1.json"),
            _experiment("mixed-pair9", "mixed", "{cycle}/pair-9-1f/pair.json", *_signal(3, 1, 4, seed)),
            _pair("pair-16-1f", "{in}/haar16.json", pu(3, 1)),
            _verify("verify-family16-2", f"{fam16}/family_2.json"),
            _experiment("mixed-pair16", "mixed", "{cycle}/pair-16-1f/pair.json", *_signal(3, 1, 4, seed)),
            _pair("pair-9-2f", "{in}/haar9.json", pu(2, 2)),
            _family("family-25", "{in}/haar25.json", pu(7, 1), 4, spot=False),
            _verify("verify-family25-1", f"{fam25}/family_1.json", spot=False),
            _experiment("parseval-family16", "parseval", f"{fam16}/family_1.json", *_signal(3, 1, 4, seed)),
            _pair("pair-16-2f", "{in}/haar16.json", pu(4, 2)),
            _verify("verify-family16-3", f"{fam16}/family_3.json"),
            _experiment("cascade-9", "cascade", "{in}/haar9.json", *_hat(6, 2, 3)),
            _pair("pair-25-1f", "{in}/haar25.json", pu(5, 1)),
            _verify("verify-family25-2", f"{fam25}/family_2.json", spot=False),
            _experiment("parseval-family25", "parseval", f"{fam25}/family_1.json", *_signal(2, 1, 4, seed)),
            _verify("verify-family16-mixed", f"{fam16}/family_1.json", "--checks", "mixed",
                    "--dual", f"{fam16}/family_2.json"),
            _experiment("cascade-16", "cascade", "{in}/haar16.json", *_hat(6, 2, 2)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
