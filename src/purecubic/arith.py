"""Arbitrary-precision integer and rational kernels.

Everything downstream leans on three primitives implemented here:
exact factorization with an explicit effort budget (the primes below
10^4 found by one gcd per block of them, then Pollard rho on Brent's
cycle, which multiplies differences only in the second half of each
cycle and takes one gcd per block of those products; the budget counts
every step, with a product or without), perfect-square detection for
rationals, and rational roots of integer polynomials (only the constant
term is factored: each numerator dividing it is matched to its one
possible denominator by the polynomial's roots modulo a small prime,
lifted by Newton steps past the leading coefficient, which is never
factored). Only tests call ``rational_reconstruct``, which finds the one
rational of height at most H within 1/(2H^2) of an exact rational, or
proves there is none: the field's square root rounds to a denominator
it proves, and walks no continued fraction. Nothing here reads a float.

Rationals are plain ``fractions.Fraction`` values (always reduced,
positive denominator).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm, prod
from operator import attrgetter, index

from .errors import EffortExceeded

# sets a field of a Value once, in its __init__, past Value.__setattr__
_set = object.__setattr__


class Value:
    """Base of the package's immutable value types.

    A subclass names its stored fields in ``__slots__`` and sets each
    once with ``_set``. Equality and hashing use ``_key``, a C-level
    getter of those fields made once per class; a value never equals an
    instance of another class. Repr, copy and pickle rebuild through
    ``__init__`` from the attributes ``_fields`` names, in its order:
    ``__slots__``, unless a class that stores another form names them.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._args()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._args()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


#: Default budget for Pollard rho iterations in one factorize() call.
DEFAULT_EFFORT = 500_000

_TRIAL_BOUND = 10_000

# Consecutive primes per gcd of factorize's trial stage.
_TRIAL_BLOCK = 16

# Pollard rho steps per gcd of the product of differences.
_RHO_BLOCK = 64

# The first twelve primes: trial divisors of certified_prime, and its
# strong-pseudoprime bases (see there).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Past the last of them, rational_roots seeks its prime on the squarefree part.
# The least strong pseudoprime to the first thirteen primes (2 to 41): with base
# 41 added, Miller-Rabin is deterministic below it.
_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981


@cache
def _trial_blocks() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(product, primes) of each run of _TRIAL_BLOCK consecutive primes up to
    _TRIAL_BOUND, ascending, from a sieve built on first use, not at import."""
    sieve = bytearray([1]) * (_TRIAL_BOUND + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_BOUND + 1, p)))
    primes = list(compress(range(_TRIAL_BOUND + 1), sieve))
    runs = (tuple(primes[i : i + _TRIAL_BLOCK]) for i in range(0, len(primes), _TRIAL_BLOCK))
    return tuple((prod(run), run) for run in runs)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def certified_prime(n: int) -> bool:
    """Deterministic primality test.

    After trial division by _MR_BASES, Miller-Rabin runs on the smallest
    base set that is deterministic for n's size, the least strong
    pseudoprime to the first j primes being psi_j: bases 2, 3, 5, 7 below
    psi_4 = 3,215,031,751; the first seven below psi_7 = 341,550,071,728,321
    (Jaeschke, Math. Comp. 61, 1993); all twelve below psi_12 =
    318,665,857,834,031,151,167,461, and those with 41 below psi_13 =
    _CERTIFIED_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
    Raises EffortExceeded for n at or beyond _CERTIFIED_BOUND when no
    compositeness witness is found, rather than reporting a probable prime
    as prime. A non-integer n raises TypeError.
    """
    n = index(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 3_215_031_751:
        bases = _MR_BASES[:4]
    elif n < 341_550_071_728_321:
        bases = _MR_BASES[:7]
    elif n < 318_665_857_834_031_151_167_461:
        bases = _MR_BASES
    else:
        bases = (*_MR_BASES, 41)
    for a in bases:
        if _miller_rabin_witness(n, a):
            return False
    if n >= _CERTIFIED_BOUND:
        raise EffortExceeded(f"primality of an integer of {_decimal_digits(n)} digits not certifiable")
    return True


def _decimal_digits(n: int) -> int:
    """How many decimal digits n > 0 has, counted without str(n), which is limited in size."""
    # 1292913986 / 2^32 is log10(2) rounded down, so 10^(d-1) <= 2^(bits-1) <= n
    d = ((n.bit_length() - 1) * 1292913986 >> 32) + 1
    return d + (n >= 10**d)


def _rho_split(n: int, budget: int) -> tuple[int | None, int]:
    """Find a nontrivial factor of odd composite n.

    Pollard rho with Brent's cycle (BIT 20, 1980) and deterministic
    parameters: y starts at 2 and steps y -> y^2 + c mod n. Each cycle
    saves x = y, then takes r steps with no product, then r steps that
    multiply x - y into q; r doubles from 1. The skip loses no factor:
    if x = y mod p at one of the first r steps, the period of the walk
    mod p is at most r, so p also divides x - y at a multiple of it
    among the next r steps. Returns (factor or None, steps used), where
    every step of y counts, with a product or without. The constant c
    is stepped when a cycle closes on n itself, so retries stay
    reproducible.

    One gcd is taken per block of _RHO_BLOCK product steps. A block
    whose gcd is not 1 is replayed from its saved y with a gcd at every
    step, so the first hit, and with it (factor, used), is the one a gcd
    at every product step would give.
    """
    used = 0
    c = 1
    while used < budget:
        y, r, d = 2, 1, 1
        while d == 1 and used < budget:
            x = y
            skip = min(r, budget - used)
            for _ in range(skip):
                y = (y * y + c) % n
            used += skip
            steps = min(r, budget - used)
            for k in range(0, steps, _RHO_BLOCK):
                block = min(_RHO_BLOCK, steps - k)
                start, q = y, 1
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if gcd(q, n) != 1:
                    # some step of the block shares a factor with n: find the first one
                    y = start
                    while d == 1:
                        y = (y * y + c) % n
                        used += 1
                        d = gcd(x - y, n)
                    break
                used += block
            r *= 2
        if 1 < d < n:
            return d, used
        c += 1
    return None, used


class Factorization(Value):
    """Signed prime factorization: sign * prod(p**e)."""

    __slots__ = ("sign", "prime_powers")

    def __init__(self, sign: int, prime_powers: tuple[tuple[int, int], ...]):
        _set(self, "sign", sign)
        _set(self, "prime_powers", prime_powers)  # strictly increasing primes

    def value(self) -> int:
        v = self.sign
        for p, e in self.prime_powers:
            v *= p**e
        return v

    def divisors(self) -> list[int]:
        """All positive divisors of |n|, ascending. Each prime p^e adds e layers,
        each the one before times p, so no power of p is recomputed."""
        ds = [1]
        for p, e in self.prime_powers:
            layer = ds
            for _ in range(e):
                layer = [d * p for d in layer]
                ds.extend(layer)
        return sorted(ds)

    def __iter__(self):
        return iter(self.prime_powers)


def factorize(n: int, effort_bound: int = DEFAULT_EFFORT) -> Factorization:
    """Exact factorization of n != 0.

    The primes up to _TRIAL_BOUND are found first, one gcd of n with the
    product of each block of _TRIAL_BLOCK consecutive primes, in ascending
    order; only a block whose gcd is not 1 is divided out prime by prime,
    and the stage stops at the first block whose least prime p has
    p*p > n. The table of blocks is sieved once, on the first call.
    Pollard rho then splits the remaining cofactors. effort_bound counts
    rho iterations only, one per step x -> x^2 + c whether or not Brent's
    cycle takes a product there (see _rho_split); the Miller-Rabin test
    that certifies a cofactor prime is not bounded by it. Raises
    EffortExceeded if a cofactor cannot be split within the budget or
    certified prime; never returns a pseudo-prime. A non-integer n or effort_bound raises TypeError.
    """
    n = index(n)
    effort_bound = index(effort_bound)
    if n == 0:
        raise ValueError("cannot factor 0")
    if effort_bound < 0:
        raise ValueError(f"effort bound must be >= 0, got {effort_bound}")
    original = n
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}

    for product, primes in _trial_blocks():
        if primes[0] * primes[0] > n:
            break
        if gcd(n, product) == 1:
            continue
        for p in primes:
            while n % p == 0:
                powers[p] = powers.get(p, 0) + 1
                n //= p

    budget = effort_bound
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if c <= _TRIAL_BOUND * _TRIAL_BOUND or certified_prime(c):
            # below the trial bound squared a surviving cofactor is prime
            powers[c] = powers.get(c, 0) + 1
            continue
        f, used = _rho_split(c, budget)
        budget -= used
        if f is None:
            raise EffortExceeded(
                f"rho: {effort_bound - budget} of {effort_bound} iterations, "
                f"cofactor of {_decimal_digits(c)} digits"
            )
        stack.append(f)
        stack.append(c // f)

    fac = Factorization(sign, tuple(sorted(powers.items())))
    assert fac.value() == original
    return fac


def perfect_square_root(q: Fraction | int) -> Fraction | None:
    """The nonnegative rational square root of q, or None if q is not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0, like ``math.isqrt``."""
    if n < 0:
        raise ValueError("icbrt() argument must be nonnegative")
    if n == 0:
        return 0
    # Start above the root, from the root of the top half of its bits (or a power of
    # two for small n); integer Newton steps then fall monotonically to the floor.
    j = n.bit_length() // 6
    x = (icbrt(n >> 3 * j) + 1) << j if j else 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def perfect_cube_root(n: int) -> int | None:
    """Exact integer cube root of n (any sign), or None."""
    r = icbrt(abs(n))
    if r**3 != abs(n):
        return None
    return r if n >= 0 else -r


def cubefree_and_noncube(m: int) -> tuple[bool, bool]:
    """(is_cubefree, is_cube) flags of m != 0, from its factorization. Its one
    caller is classfield; a CubicField needs only perfect_cube_root(m) is None."""
    if m == 0:
        raise ValueError("m must be nonzero")
    fac = factorize(m)
    is_cubefree = all(e < 3 for _, e in fac)
    is_cube = all(e % 3 == 0 for _, e in fac)  # sign is absorbed: -1 = (-1)^3
    return is_cubefree, is_cube


class IntPoly(Value):
    """Univariate integer polynomial, coefficients ascending by degree.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(map(index, coeffs))  # TypeError, not truncation, on a non-integer
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        _set(self, "coeffs", cs)

    @classmethod
    def from_rationals(cls, coeffs) -> "IntPoly":
        """Clear denominators of a rational coefficient list (ascending)."""
        fracs = [Fraction(c) for c in coeffs]
        scale = 1
        for c in fracs:
            scale = lcm(scale, c.denominator)
        return cls(tuple(int(c * scale) for c in fracs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """Exact evaluation; x may be int, Fraction, or any ring element."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def format(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" if i == 1 else f"{head}x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.format()


def rational_roots(p: IntPoly) -> set[Fraction]:
    """All rational roots of a nonzero integer polynomial f.

    Strips powers of x first (recording the root 0), then finds the roots
    p/q in lowest terms (q > 0), p | c_0 and q | c_d. Only c_0 is factored,
    and its divisors are the numerators; c_d is never factored.

    Each numerator gets its one possible denominator from a p-adic lift.
    Take the first prime l dividing neither end coefficient at which every
    root z of f mod l is simple; past _MR_BASES, f is first replaced by its
    primitive squarefree part, which has the same roots, all simple, so
    some l qualifies. No root mod l means no nonzero rational root. Newton
    steps lift each z to Z with f(Z) = 0 mod L = l^(2^j) > |c_d|, carrying
    1/f'(z) along by a Newton step of its own rather than an extended gcd
    per step. For each divisor p of c_0 and each Z, one product gives
    q = p/Z mod L, which is not 0 since l does not divide p, and -p gets
    L - q; each candidate is kept when q | c_d, gcd(p, q) = 1 and the
    homogenised sum of c_i * p^i * q^(d-i) is exactly 0. No root is
    lost: a root p/q has l dividing neither p nor q, so p/q = z (mod l)
    for a simple root z, and by Hensel's uniqueness Z is the only l-adic
    root above z; so p = q*Z (mod L), and 0 < q <= |c_d| < L fixes q.
    Raises EffortExceeded when factorize cannot split the constant term c_0.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    cs = list(p.coeffs)
    roots: set[Fraction] = set()
    while cs[0] == 0:
        roots.add(Fraction(0))
        cs = cs[1:]
    if len(cs) == 1:
        return roots
    numerators = factorize(cs[0]).divisors()
    ell, squarefree = 1, False
    while True:
        ell += 1
        if not certified_prime(ell):
            continue
        if ell > _MR_BASES[-1] and not squarefree:
            cs, squarefree = _squarefree_part(cs), True
        if cs[0] % ell == 0 or cs[-1] % ell == 0:
            continue
        lifts = [z for z in range(ell) if _value_mod(cs, z, ell) == 0]
        if not lifts:
            return roots
        dcs = [i * c for i, c in enumerate(cs)][1:]
        if all(_value_mod(dcs, z, ell) for z in lifts):
            break
    # a root z mod L carries v = 1/f'(z) mod L: z - f(z)*v is the root mod L^2, and one
    # Newton step for the reciprocal, v*(2 - f'(z)*v), brings v to L^2 without an extended gcd
    bound, inverses = abs(cs[-1]), []
    for z in lifts:
        modulus, v = ell, pow(_value_mod(dcs, z, ell), -1, ell)
        while modulus <= bound:
            modulus *= modulus
            z = (z - _value_mod(cs, z, modulus) * v) % modulus
            if modulus <= bound:
                v = v * (2 - _value_mod(dcs, z, modulus) * v) % modulus
        inverses.append(pow(z, -1, modulus))
    tail = cs[-2::-1]  # c_(d-1), ..., c_0
    cd, found = cs[-1], set()

    def keep(num: int, den: int):
        """Add num/den to found if it is in lowest terms and a root of cs."""
        if gcd(num, den) != 1:
            return
        acc, den_pow = cd, 1
        for c in tail:
            den_pow *= den
            acc = acc * num + c * den_pow
        if acc == 0:
            found.add(Fraction(num, den))

    if squarefree:  # the squarefree part's c_0 divides the old one, maybe strictly
        numerators = [nm for nm in numerators if cs[0] % nm == 0]
    for inverse in inverses:
        for nm in numerators:
            # nm divides c_0, so l does not divide nm and 0 < dn < L; -nm gets L - dn
            dn = nm * inverse % modulus
            if cd % dn == 0:
                keep(nm, dn)
            if cd % (modulus - dn) == 0:
                keep(-nm, modulus - dn)
    return roots | found


def _value_mod(cs: list[int], x: int, modulus: int) -> int:
    """The polynomial with coefficients cs (ascending) at x, mod modulus."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % modulus
    return acc


def _squarefree_part(cs: list[int]) -> list[int]:
    """The primitive squarefree part f / gcd(f, f'), up to sign, of the integer
    polynomial f with coefficients cs (ascending), by Euclid's algorithm over Q."""
    f = [Fraction(c) for c in cs]
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    g = IntPoly.from_rationals(_divmod_poly(f, a)[0]).coeffs
    content = gcd(*g)
    return [c // content for c in g]


def _divmod_poly(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(q, r) with a = q*b + r and deg r < deg b, coefficients ascending, b[-1] != 0.
    q gets one coefficient per step, zero or not; r has no trailing zeros."""
    q, r = [], list(a)
    for k in range(len(a) - len(b), -1, -1):  # r has degree k + deg b here
        c = r[-1] / b[-1]
        q.insert(0, c)
        r = r[:k] + [x - c * y for x, y in zip(r[k:-1], b)]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def rational_reconstruct(x, height_bound: int) -> Fraction | None:
    """The rational p/q with |p|, q <= H = height_bound that lies strictly
    within 1/(2H^2) of the exact rational x (an int or a Fraction), or
    None. Raises TypeError for any other x: a float or a decimal string
    would first have to be read at some precision, which is the caller's
    choice, not this function's.

    Two rationals of height at most H differ by at least 1/H^2, so at
    most one lies that close to x. By Legendre's theorem (Hardy & Wright,
    Thm. 184) such a p/q is a convergent of x, as |x - p/q| < 1/(2H^2)
    <= 1/(2q^2). The continued fraction of |x| is walked on integers:
    Euclid's ``divmod`` gives the partial quotients a, and p = a*p' + p'',
    q = a*q' + q'' the convergents, whose p and q never decrease. Each
    convergent lies closer to x than the one before, so only the last one
    within the height bound is tested, as 2H^2 * |tn*q - p*td| < td*q for
    |x| = tn/td. A None is therefore a proof that no rational of height at
    most H lies within the radius.
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an int or a Fraction: {x!r}")
    tn, td = abs(x.numerator), x.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = tn, td
    while d:
        a, rem = divmod(n, d)
        p, q = a * p1 + p0, a * q1 + q0
        if p > height_bound or q > height_bound:
            break
        p0, q0, p1, q1 = p1, q1, p, q
        n, d = d, rem
    if q1 and 2 * height_bound**2 * abs(tn * q1 - p1 * td) < td * q1:
        return Fraction(p1 if x >= 0 else -p1, q1)
    return None


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rat(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with arbitrary-precision integers; reject anything else."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)
