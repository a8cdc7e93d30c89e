"""The residue field GF(q), q = p^c: its parameters and its field state.

Elements are digit vectors over the polynomial basis {1, z, ..., z^(c-1)}
with z a root of a monic irreducible modulus polynomial over GF(p).
Every element also has an integer code d = a0 + a1*p + ... + a_{c-1}*p^(c-1)
in [0, q).  A modulus that is not given is the monic irreducible of degree
c whose lower coefficients have the least such code.

Sums of elements are carry-free base-p sums of their codes.  The
characters see a product only through proj0(a*b) = a^T M b mod p, and
``field_tables`` returns that c-by-c Hankel form M: the field state of the
numeric kernels.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError


def is_prime(n: int) -> bool:
    """Trial-division primality test (desk-scale n)."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def digit_count(n: int, base: int) -> int:
    """The least d >= 0 with base**d > n, counted without forming a power."""
    digits = 0
    while n > 0:
        n //= base
        digits += 1
    return digits


def addressable(base: int, power: int, itemsize: int) -> bool:
    """Whether base**power items of ``itemsize`` bytes fit in sys.maxsize bytes."""
    return base < 2 or power < digit_count(sys.maxsize // itemsize, base)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is refused."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, b, p):
    """Remainder of polynomial a modulo monic b, coefficients mod p."""
    a = [x % p for x in a]
    a = _poly_trim(a)
    b = _poly_trim([x % p for x in b])
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = a[-1]
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bc) % p
        a = _poly_trim(a)
    return a


def _monic(code: int, p: int, degree: int) -> tuple:
    """The monic polynomial of ``degree`` whose lower coefficients
    (a0, ..., a_{degree-1}) are the base-p digits of ``code``."""
    return tuple((code // p ** i) % p for i in range(degree)) + (1,)


def _is_irreducible(modulus, p, c) -> bool:
    """No monic factor of degree <= c//2 (for c <= 3, no root)."""
    for deg in range(1, c // 2 + 1):
        for code in range(p ** deg):
            if not _poly_rem(modulus, _monic(code, p, deg), p):
                return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Residue-field parameters: prime p, extension degree c, modulus polynomial.

    The modulus is a tuple of c+1 coefficients in [0, p), monic, irreducible
    over GF(p).  It is ignored for c = 1, and when it is omitted the monic
    irreducible of degree c with the least code is taken: (0, 1) for c = 1,
    x^2 + x + 1 for GF(4), x^8 + x^4 + x^3 + x + 1 for GF(256).
    """

    p: int
    c: int = 1
    modulus: tuple = ()

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ParameterError(f"p must be prime, got {self.p!r}")
        if not isinstance(self.c, int) or self.c < 1:
            raise ParameterError(f"c must be a positive integer, got {self.c!r}")
        # before the primality and irreducibility searches, which take
        # time that grows with q
        if not addressable(self.p, 2 * self.c, 16):  # q*q complex entries
            field = f"GF({self.p})" if self.c == 1 else f"GF({self.p}^{self.c})"
            raise SizeError(
                f"{field} needs a q-by-q complex character table larger than the address space"
            )
        if not is_prime(self.p):
            raise ParameterError(f"p must be prime, got {self.p!r}")
        modulus = tuple(self.modulus)
        if self.c == 1 or not modulus:  # the least code; every degree has an irreducible
            candidates = (_monic(code, self.p, self.c) for code in range(self.q))
            modulus = next(m for m in candidates if _is_irreducible(m, self.p, self.c))
        elif len(modulus) != self.c + 1:
            raise ParameterError(f"modulus must have degree c={self.c}")
        elif modulus[-1] != 1:
            raise ParameterError("modulus must be monic")
        elif any(not (0 <= a < self.p) for a in modulus):
            raise ParameterError("modulus coefficients must lie in [0, p)")
        elif not _is_irreducible(modulus, self.p, self.c):
            raise ParameterError(f"modulus {modulus} is reducible over GF({self.p})")
        object.__setattr__(self, "modulus", modulus)

    @property
    def q(self) -> int:
        return self.p ** self.c

    def to_json(self) -> dict:
        return {"p": self.p, "c": self.c, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj) -> "FieldParams":
        """A file's ``field``: a JSON object, whose ``modulus`` may be absent or a JSON list."""
        if not isinstance(obj, dict):
            raise ParameterError(f"field must be a JSON object, got {type(obj).__name__}")
        modulus = obj.get("modulus", [])
        if not isinstance(modulus, list):
            raise ParameterError(f"field modulus must be a JSON list, got {type(modulus).__name__}")
        try:
            p, c = json_int(obj["p"], "p"), json_int(obj["c"], "c")
        except KeyError as exc:
            raise ParameterError(f"bad field parameters: missing {exc}") from exc
        return cls(p, c, tuple(json_int(a, "modulus coefficient") for a in modulus))


@functools.lru_cache(maxsize=None)
def field_tables(params: FieldParams) -> np.ndarray:
    """The read-only c-by-c Hankel form M[i, j] = proj0(z**(i+j)):
    proj0(a*b) = a^T M b mod p for coordinate vectors a and b."""
    p, c = params.p, params.c
    proj0 = [(_poly_rem([0] * k + [1], params.modulus, p) or [0])[0] for k in range(2 * c - 1)]
    hankel = np.array([[proj0[i + j] for j in range(c)] for i in range(c)], dtype=np.int64)
    hankel.flags.writeable = False
    return hankel
