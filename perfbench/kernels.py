"""Seeded kernel submissions for the ``embed`` workload.

The templates are three accepted kernels of the ``@kernel`` corpus
(``examples/jit_kernels.py``: guarded update, clamped stencil, divergent
grid-stride loop), written here with a name and constants left open so
each variant is a new source that misses every cache.  The known-bad
kernels are the corpus's two rejections plus a source the submission
vetting refuses; each must get the typed 422.

Two deliberate departures from the corpus:

* its shared-memory reduction is left out: its reference run takes about
  1.3 s against 30-70 ms for the others, so it alone would set the
  submission latencies;
* the divergent loop counts with ``while``: a submitted ``for ... in
  range(...)`` compiles, but the reference run raises ``NameError``
  (submitted sources run without builtins) and the service answers 500
  -- a known defect this workload does not measure.
"""

from __future__ import annotations

import random
from typing import NamedTuple

TEMPLATES = {
    "saxpy": '''\
def {name}(n: "i64", a: "f64", x: "f64[:]", y: "f64[:]"):
    i = gid(0)
    if i < n:
        y[i] = a * x[i] + {c} * y[i]
''',
    "stencil3": '''\
def {name}(n: "i64", x: "f64[:]", out: "f64[:]"):
    i = gid(0)
    if i < n:
        left = x[i]
        right = x[i]
        if i > 0:
            left = x[i - 1]
        if i < n - 1:
            right = x[i + 1]
        out[i] = (left + {c} * x[i] + right) / {d}
''',
    "branchy": '''\
def {name}(n: "i64", x: "f64[:]", out: "f64[:]"):
    i = gid(0)
    stride = gsize(0)
    while i < n:
        v = x[i]
        if v > {t}:
            acc = 0.0
            k = 0
            while k < 3:
                acc = acc + v * f64(k + 1)
                k = k + 1
            out[i] = sqrt(acc)
        else:
            out[i] = v * {c}
        i = i + stride
''',
}

#: (source, signature) pairs the service must reject with HTTP 422.
BAD_KERNELS = (
    ('def {name}(n, x):\n    return x[0]\n', "f64(i64, f64[:])"),
    ('def {name}(n: "i64", x: "f64[:]"):\n    return x[0]\n', None),
    ('import os\n\n\ndef {name}(n: "i64", x: "f64[:]"):\n    x[0] = 1.0\n',
     None),
)

#: Every block of this many submissions holds ``NEW`` new variants, one
#: known-bad kernel and resubmits for the rest, in a seeded order; new
#: variants take the templates in turn.  The shares are assumed (most
#: submissions new, some resubmitted, a few bad; nothing in the
#: repository records real submissions).  Fixed shares keep the mix, and
#: so the latency percentiles, from drifting with the seed.
BLOCK = 20
NEW = 16
BAD = 1


class Submission(NamedTuple):
    kind: str               # "new", "resubmit" or "bad"
    template: str           # a TEMPLATES key, or "bad"
    name: str               # the kernel's function name
    source: str
    signature: str | None


def reference_source(template: str) -> str:
    """The template with fixed constants: the source of its reference row."""
    return TEMPLATES[template].format(name=f"{template}_reference", c="1.5",
                                      d="3.0", t="0.5")


class Submissions:
    """An endless seeded stream of :class:`Submission`."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"embed-submissions-{seed}")
        self._order = sorted(TEMPLATES)
        self._rng.shuffle(self._order)
        self._plan: list[str] = []
        self._sent: list[Submission] = []
        self._serial = 0

    def _constant(self) -> str:
        return repr(round(self._rng.uniform(0.25, 4.0), 3))

    def next(self) -> Submission:
        rng = self._rng
        if not self._plan:
            self._plan = (["new"] * NEW + ["bad"] * BAD
                          + ["resubmit"] * (BLOCK - NEW - BAD))
            rng.shuffle(self._plan)
        kind = self._plan.pop()
        self._serial += 1
        if kind == "bad":
            name = f"bad_k{self._serial}"
            source, signature = rng.choice(BAD_KERNELS)
            return Submission("bad", "bad", name, source.format(name=name),
                              signature)
        if kind == "resubmit" and self._sent:
            return rng.choice(self._sent)._replace(kind="resubmit")
        template = self._order[len(self._sent) % len(self._order)]
        name = f"{template}_k{self._serial}"
        sub = Submission("new", template, name, TEMPLATES[template].format(
            name=name, c=self._constant(), d=self._constant(),
            t=repr(round(rng.uniform(0.4, 0.6), 3))), None)
        self._sent.append(sub)
        return sub
