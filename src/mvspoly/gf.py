"""Arithmetic in F_{p^N} with a distinguished base subfield F_q, q = p^k.

A FieldCtx fixes one ambient field F_{p^N} = F_p[y]/(modulus) together with
the tower F_p < F_q < F_{q^n}, N = k*n.  The modulus is the lexicographically
least monic irreducible of degree N over F_p, coefficients compared low
degree first, so equal parameters always rebuild the identical field.  The
search runs Rabin's irreducibility test behind Ben-Or's small-factor screen,
with the `poly` arithmetic over the prime field F_p (on tables while
p <= N); there is no second copy of F_p[y] code.

Elements are immutable length-N tuples of F_p digits, low degree first.
Subfields are never separate objects: F_{q^d} is the zero space of
x^(q^d) - x inside the one ambient field, read off the one kernel routine
`additive_zeros` that also finds the roots of every additive polynomial,
so no subfield is found by a scan of the field.

Two back ends have the same public ops, and `make_field` picks one by the
order Q.  `FieldCtx` computes on exp/log/Zech tables, up to 2^20 elements;
they hold ints, built by blocks of powers at p = 2, once per (p, N) for every
base F_q, and each context's `_exp` and `_log` make and record element
tuples on first use.  `PlainField` keeps no tables and works digit by
digit; it also runs the modulus search above p = N, and it refuses
`solve_power`, which would need a generator scan.  No other
module knows the back end: `fold` and `square` are the polynomial products
that `poly` and `linearized` call, and `fold_each` folds a list of
polynomials on one set of rows, prepared once.

All operations are pure.  Each fill of a tuple table stores the value every
other fill would store, and `memo` and the int table store keep the first
value built under a key, so contexts and elements can be shared freely
across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array

from . import poly
from .errors import GuardError, InputError
from .linalg import FqSpan, fp_elem, fp_kernel, fp_row

# Multiplicative exp/log tables are built for fields up to this order.
TABLE_LIMIT = 1 << 20
# q^n - 1 must stay comfortably inside 64-bit exponent arithmetic.
SIZE_LIMIT = 1 << 62
# (p, N) -> the generator and int tables of F_{p^N}, shared by every base F_q
_TABLES = {}


def prime_factors(m: int) -> list:
    """The distinct prime factors of m >= 1, in increasing order."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37.  It is exact
    below 318665857834031151167461 (about 3.2*10^23), the least strong
    pseudoprime to all twelve bases, which is far above the 2^62 size limit."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    s = ((m - 1) & (1 - m)).bit_length() - 1        # m - 1 = d * 2^s, d odd
    d = (m - 1) >> s
    for b in bases:
        x = pow(b, d, m)
        if x != 1 and m - 1 not in (pow(x, 1 << j, m) for j in range(s)):
            return False
    return True


def power_exceeds(b: int, e: int, bound: int) -> bool:
    """b^e > bound for b, e >= 0, built one factor at a time and stopped
    once past bound, so a guard never computes a huge power."""
    if b < 2:
        return (b if e else 1) > bound
    r = 1
    for _ in range(e):
        r *= b
        if r > bound:
            return True
    return r > bound


def _is_irreducible(fp, coeffs) -> bool:
    """Rabin's test for a monic f over the prime field fp, of degree n >= 2
    with f(0) != 0, given as a full coefficient list, behind Ben-Or's
    small-factor screen.  With s_i = x^(p^i) mod f, taken in turn: f is
    irreducible iff s_n = x and gcd(s_{n/r} - x, f) = 1 for every prime
    r | n (Rabin).  The screen refuses f early when gcd(s_i - x, f) != 1 for
    some i <= min(3, n/2), i = 1 being a root in F_p: f then has a factor of
    degree dividing i < n (Ben-Or).  Only Rabin's conditions accept."""
    f = {e: (c,) for e, c in enumerate(coeffs) if c}
    n = len(coeffs) - 1
    x = s = poly.x_poly(fp)
    coprime_at = {n // r for r in prime_factors(n)}.union(range(1, min(3, n // 2) + 1))
    for i in range(1, n + 1):
        s = poly.pth_power_mod(fp, s, f)
        if i in coprime_at and poly.degree(poly.gcd(fp, f, poly.sub(fp, s, x))):
            return False
    return s == x


@functools.lru_cache(maxsize=None)
def find_modulus(p: int, n: int) -> tuple:
    """Lexicographically least monic irreducible of degree n over F_p.

    Candidates (c_0, ..., c_{n-1}) are compared low-degree digit first.
    It is kept per (p, n), so every base of one ambient field shares it.
    """
    if n == 1:
        return (0, 1)
    # on tables while p <= n, where F_p has at most n elements; without
    # them above, so a large p costs no p-element exp/log table
    fp = make_field(p, 1, 1) if p <= n else PlainField(p, 1, 1)
    for idx in range(p ** (n - 1), p ** n):     # idx has c_0 != 0 as its leading digit
        coeffs = tuple(idx // p ** (n - 1 - i) % p for i in range(n)) + (1,)
        if _is_irreducible(fp, coeffs):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# the field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """The ambient field F_{p^N} with base subfield F_q = F_{p^k}, N = k*n,
    computed on exp/log/Zech tables; up to 2^20 elements."""

    def __init__(self, p: int, k: int, n: int):
        if k < 1 or n < 1:
            raise InputError("k and n must be positive")
        if power_exceeds(p, k * n, SIZE_LIMIT):
            raise InputError("field too large for 64-bit exponent arithmetic")
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        self.p = p
        self.k = k
        self.n = n
        self.N = k * n
        self.q = p ** k
        self.Q = p ** self.N
        self.modulus = find_modulus(p, self.N)
        self.zero = (0,) * self.N
        self.one = tuple([1] + [0] * (self.N - 1))
        # reduction rows: y^(N+j) mod modulus for j = 0..N-2
        self._red = self._reduction_rows()
        self._caches = {}
        self._build_table()

    # -- construction helpers ------------------------------------------------

    def _reduction_rows(self):
        p, N, mod = self.p, self.N, self.modulus
        cur = [(-mod[i]) % p for i in range(N)]      # y^N
        rows = [tuple(cur)]
        for _ in range(N - 2):                       # y^(N+j+1) = y * y^(N+j)
            c = cur[-1]
            cur = [0] + cur[:-1]
            if c:
                cur = [(x - c * m) % p for x, m in zip(cur, mod)]
            rows.append(tuple(cur))
        return rows

    def _conv(self, a, b, conv):
        """Add the digit convolution of a and b into conv, a list of 2N - 1
        ints that stay unreduced until `_reduce`."""
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return conv

    def _reduce(self, conv):
        """The element whose unreduced digit convolution is conv."""
        p, N = self.p, self.N
        out = conv[:N]
        for j in range(N - 1):
            c = conv[N + j] % p
            if c:
                for i, r in enumerate(self._red[j]):
                    out[i] += c * r
        return tuple([x % p for x in out])

    def _mul_raw(self, a, b):
        return self._reduce(self._conv(a, b, [0] * (2 * self.N - 1)))

    def _pow_raw(self, a, e):
        r = self.one
        base = a
        while e:
            if e & 1:
                r = self._mul_raw(r, base)
            e >>= 1
            if e:
                base = self._mul_raw(base, base)
        return r

    def _find_generator(self):
        """First multiplicative generator in canonical element order."""
        Q = self.Q
        primes = prime_factors(Q - 1)
        for v in range(1, Q):
            a = self.elem_from_int(v)
            if all(self._pow_raw(a, (Q - 1) // r) != self.one for r in primes):
                return a
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def _build_table(self):
        """The generator and its int tables, taken from `_TABLES` (built by
        `_int_tables` on the first context of this p and N), and the
        context's own tuple tables.  These start empty: `_exp[i] or
        self._intern(i)` is the tuple of g^i, and a miss in `_log` falls back
        to `_log_of`."""
        if self.Q > TABLE_LIMIT:
            raise GuardError("multiplicative table refused above 2^20 elements")
        key = (self.p, self.N)
        try:
            shared = _TABLES[key]
        except KeyError:
            shared = _TABLES.setdefault(key, self._int_tables())
        self.generator, self._iexp, self._ilog, self._zech = shared
        M = self._M = self.Q - 1
        self._exp = [None] * M
        self._log = {self.zero: None}
        # log(-1), and log(c * 1) for c in F_p (the int of c * 1 is c)
        self._neg_log = M // 2 if self.p > 2 else 0
        self._scalar_log = [None, *self._ilog[1:self.p]]

    def _int_tables(self):
        """The first generator g, and log -> int (`_iexp`) and int -> log
        (`_ilog`) of its powers on canonical ints: at p = 2 `_iexp` is built
        by blocks (see `_powers_by_blocks`) and `_ilog` filled in one pass
        over it; at odd p both are filled stepping one chunk-table step per
        power (see _mul_tables).  The Zech table zech[n] = log(1 + g^n) is
        read off `_ilog`.  All three are int arrays, -1 for "no log"; they
        depend on p and N only, and no one writes to them once built."""
        Q, p = self.Q, self.p
        M = Q - 1
        generator = self._find_generator()
        tables = self._mul_tables(generator)
        ilog = array("i", [-1]) * Q     # canonical int -> log; 0 has none
        if p == 2:
            iexp = self._powers_by_blocks(tables)
            for i, v in enumerate(iexp):
                ilog[v] = i
            # 1 + v is v XOR 1, so the ints 2j and 2j + 1 are each other's
            # 1 + v and their logs each other's Zech logs; 1 + 1 = 0 has none
            zech = array("i", [-1]) * M
            for a, b in zip(ilog[2::2], ilog[3::2]):
                zech[a], zech[b] = b, a
        else:
            iexp = array("i", [0]) * M
            size = len(tables[0][1])
            v = 1
            for i in range(M):
                iexp[i] = v
                ilog[v] = i
                v = self._digits_to_int(self.sum([tab[v // place % size]
                                                  for place, tab in tables]))
            # nxt[v] = log(1 + element v): adding 1 raises digit 0 by one,
            # and digit 0 = p - 1 wraps to 0
            nxt = ilog[1:]
            nxt.append(ilog[0])
            nxt[p - 1::p] = ilog[::p]
            zech = array("i", [0]) * M
            for n, z in zip(itertools.islice(ilog, 1, None), itertools.islice(nxt, 1, None)):
                zech[n] = z
            del nxt
        return generator, iexp, ilog, zech

    def _powers_by_blocks(self, tables):
        """The canonical ints of g^0, ..., g^(M-1) at p = 2, M = Q - 1, as an
        int array.  The first K = 2^ceil(N/2) are stepped, one chunk-table
        step each.  Each later block of K powers is the previous block times
        g^K, a map that is F_2-linear on ints, so it runs on the block's byte
        planes: output plane o is the XOR, taken on ints, over the input
        planes b of plane b translated by c -> byte o of (c << 8b) * g^K."""
        N, M = self.N, self.Q - 1
        K = 1 << (N + 1) // 2
        first, v = [], 1
        for _ in range(K):
            first.append(v)
            w = 0
            for shift, tab in tables:
                w ^= tab[v >> shift & 255]
            v = w
        # v is g^K; a chunk shorter than 8 bits pads its tables to 256 bytes
        shifts = range(0, N, 8)         # of the byte planes
        trans = [[bytes([t >> o & 255 for t in tab]).ljust(256, b"\0") for o in shifts]
                 for _, tab in self._mul_tables(self.elem_from_int(v))]
        block = [bytes([u >> o & 255 for u in first]) for o in shifts]
        columns = [[b] for b in block]
        for _ in range(M // K):         # K is even and M odd: ceil(M / K) - 1 blocks
            acc = [0] * len(shifts)
            for b, row in zip(block, trans):
                for o, t in enumerate(row):
                    acc[o] ^= int.from_bytes(b.translate(t), "little")
            block = [a.to_bytes(K, "little") for a in acc]
            for col, b in zip(columns, block):
                col.append(b)
        iexp = array("i")
        width = iexp.itemsize
        raw = bytearray(width * K * len(columns[0]))
        for o, col in enumerate(columns):       # byte o of each int, little-endian
            raw[o::width] = b"".join(col)
        iexp.frombytes(raw[:width * M])
        if sys.byteorder == "big":
            iexp.byteswap()
        return iexp

    def _intern(self, i):
        """The tuple of g^i, stored in `_exp` and `_log` on first use."""
        a = self._exp[i] = self.elem_from_int(self._iexp[i])
        self._log[a] = i
        return a

    def _log_of(self, a):
        """The log of element a (None for zero), stored in `_log` on first
        use; KeyError for a tuple that is not a field element."""
        try:
            return self._log[a]
        except KeyError:
            pass
        if len(a) != self.N or not all(0 <= d < self.p for d in a):
            raise KeyError(a)
        la = self._log[a] = self._ilog[self._digits_to_int(a)]
        return la

    def _mul_tables(self, g):
        """Multiplication by g, which is F_p-linear, tabulated per chunk of
        w digits (the largest w <= N with p^w <= 256): entry c of a chunk's
        table is the image sum_j c_j * y^j * g over the chunk's digits c_j.
        At p = 2 the entries are canonical ints, keyed by bit shift, and the
        chunks' images add by XOR; at odd p they are digit tuples, keyed by
        the chunk's place value p^low."""
        p, N = self.p, self.N
        w = 1
        while w < N and p ** (w + 1) <= 256:
            w += 1
        images = [self._mul_raw(self.elem_from_int(p ** j), g) for j in range(N)]
        tables = []
        for low in range(0, N, w):
            if p == 2:
                tab = [0]
                for b in map(self._digits_to_int, images[low:low + w]):
                    tab += [t ^ b for t in tab]
                tables.append((low, tab))
            else:
                tab = [self.zero]
                for b in images[low:low + w]:
                    tab = [tuple((x + d * y) % p for x, y in zip(t, b))
                           for d in range(p) for t in tab]
                tables.append((p ** low, tab))
        return tables

    # -- canonical element order --------------------------------------------

    def elem_from_int(self, v: int) -> tuple:
        digits = []
        for _ in range(self.N):
            digits.append(v % self.p)
            v //= self.p
        return tuple(digits)

    def elem_to_int(self, a: tuple) -> int:
        """The canonical int sum a_i * p^i of a: read off the tables for an
        element already interned, by the digit loop otherwise."""
        la = self._log.get(a, -1)
        if la is None:
            return 0
        if la >= 0:
            return self._iexp[la]
        return self._digits_to_int(a)

    def _digits_to_int(self, a: tuple) -> int:
        v = 0
        for d in reversed(a):
            v = v * self.p + d
        return v

    def memo(self, key, build):
        """The value kept on the context under key, made by build() on first
        use.  A build that raises keeps nothing.  Two threads may both build;
        every caller gets the first value kept."""
        try:
            return self._caches[key]
        except KeyError:
            return self._caches.setdefault(key, build())

    def elements(self) -> list:
        """All field elements in canonical coefficient-vector order."""
        def build():
            if self.Q > TABLE_LIMIT:
                raise GuardError("full element scan refused above 2^20 elements")
            # product varies its last place fastest; reversed, digit 0 does
            return [t[::-1] for t in itertools.product(range(self.p), repeat=self.N)]
        return self.memo("elements", build)

    # -- ring operations ------------------------------------------------------

    # The ops work on logs: a product is one log addition, and a sum one
    # lookup in the table of Zech logarithms (K. Huber, IEEE Trans. IT 36,
    # 1990), g^a + g^b = g^(a + zech[b - a]).  They return the canonical
    # tuples.  _log maps zero to None, and on a miss _log_of refuses an
    # operand that is not a field element with KeyError.

    def add(self, a, b):
        log = self._log
        try:
            la = log[a]
            lb = log[b]
        except KeyError:
            la, lb = self._log_of(a), self._log_of(b)
        if la is None:
            return b
        if lb is None:
            return a
        z = self._zech[lb - la]     # |lb - la| < M: a negative index wraps
        if z < 0:
            return self.zero
        i = (la + z) % self._M
        return self._exp[i] or self._intern(i)

    def sum(self, elems):
        """The sum of a nonempty sequence of elements, one digit column at
        a time."""
        p = self.p
        return tuple(sum(col) % p for col in zip(*elems))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        la = self._log_of(a)
        if la is None:
            return a
        i = (la + self._neg_log) % self._M
        return self._exp[i] or self._intern(i)

    def smul(self, c: int, a):
        """Scalar multiple by an integer (an F_p scalar)."""
        la = self._log_of(a)
        lc = self._scalar_log[c % self.p]
        if la is None or lc is None:
            return self.zero
        i = (la + lc) % self._M
        return self._exp[i] or self._intern(i)

    def mul(self, a, b):
        log = self._log
        try:
            la = log[a]
            lb = log[b]
        except KeyError:
            la, lb = self._log_of(a), self._log_of(b)
        if la is None or lb is None:
            return self.zero
        i = (la + lb) % self._M
        return self._exp[i] or self._intern(i)

    def fold(self, f: dict, rows) -> dict:
        """`fold_each` on the one polynomial f."""
        return self.fold_each((f,), rows)[0]

    def fold_each(self, fs, rows) -> list:
        """For each f in fs, the sum of c0 * c^(p^m) * x^(e0 + e * p^m) over
        the rows (e0, c0, m) and the terms (e, c) of f, with f's terms
        twisted once per distinct m.  The rows are prepared once for the
        whole list: the log of c0, and p^m with p^m mod Q-1 per distinct m.
        A twisted term is (e * p^m, (p^m mod Q-1) * log c), each exponent's
        logs are summed by Zech addition, -1 marking a zero sum, and a
        non-element raises KeyError."""
        p = self.p
        log, zech, M = self._log_of, self._zech, self._M
        rows = [(e0, l0, m) for e0, c0, m in rows if (l0 := log(c0)) is not None]
        steps = {}
        out = []
        for f in fs:
            terms = [(e, la) for e, c in f.items() if (la := log(c)) is not None]
            twists = {0: terms}
            acc = {}
            get = acc.get
            for e0, l0, m in rows:
                twisted = twists.get(m)
                if twisted is None:
                    if m not in steps:
                        steps[m] = p ** m, pow(p, m, M)
                    pm, t = steps[m]
                    twisted = twists[m] = [(e * pm, t * l) for e, l in terms]
                for e, l in twisted:
                    e += e0
                    l += l0
                    la = get(e, -1)
                    if la < 0:
                        acc[e] = l
                    else:
                        z = zech[(l - la) % M]
                        acc[e] = la + z if z >= 0 else -1
            out.append(self._from_logs(acc))
        return out

    def square(self, f: dict) -> dict:
        """f*f with each cross product made once: the diagonal c^2 * x^(2e),
        then c * c' * x^(e + e') for each pair of terms, with log 2 added,
        summed as in `fold`.  That is n(n+1)/2 products for n terms.  At
        p = 2 the cross terms cancel in pairs and f*f is the termwise
        Frobenius.  A non-element raises KeyError, as in `mul`."""
        log, zech, M = self._log_of, self._zech, self._M
        terms = [(e, la) for e, c in f.items() if (la := log(c)) is not None]
        acc = {2 * e: 2 * l for e, l in terms}
        log2 = self._scalar_log[2 % self.p]         # None at p = 2
        if log2 is not None:
            # fold's Zech loop, repeated rather than shared.  In process, one
            # shared loop called once per fold made the sweep workload 0.8-1.7%
            # slower per op when fed fold's rows as (e0, log c0, terms), and
            # 3-4% (F_729 members 9%) when fed a generator of products; the
            # tree against itself read 0.993-1.000
            get = acc.get
            for i, (e0, l0) in enumerate(terms):
                l0 += log2
                for e, l in terms[i + 1:]:
                    e += e0
                    l += l0
                    la = get(e, -1)
                    if la < 0:
                        acc[e] = l
                    else:
                        z = zech[(l - la) % M]
                        acc[e] = la + z if z >= 0 else -1
        return self._from_logs(acc)

    def _from_logs(self, acc) -> dict:
        """The polynomial whose coefficients have the logs in acc."""
        exp, M = self._exp, self._M
        out = {}
        for e, l in acc.items():
            if l >= 0:
                l %= M
                out[e] = exp[l] or self._intern(l)
        return out

    def inv(self, a):
        if a == self.zero:
            raise InputError("division by zero field element")
        return self._unit_pow(a, -1)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_elem(self, a, e: int):
        """a^e for e >= 0; exponents reduce mod Q-1 on nonzero elements."""
        if e < 0:
            raise InputError("negative exponent")
        if a == self.zero:
            return self.one if e == 0 else self.zero
        return self._unit_pow(a, e)

    def _unit_pow(self, a, e: int):
        """a^e for a nonzero a and any integer e."""
        try:
            la = self._log[a]
        except KeyError:
            la = self._log_of(a)
        i = la * e % self._M
        return self._exp[i] or self._intern(i)

    def int_elem(self, c: int):
        """The element c*1 for an integer c."""
        return self.smul(c, self.one)

    # -- Frobenius and subfields ----------------------------------------------

    def frobenius_p(self, a, m: int):
        """a^(p^m); m reduced mod N, so negative m is the inverse map."""
        m %= self.N
        if m == 0 or a == self.zero or a == self.one:
            return a
        return self.pow_elem(a, self.p ** m)

    def frobenius(self, a, j: int):
        """a^(q^j); j reduced mod n, so negative j is the inverse map."""
        return self.frobenius_p(a, (j % self.n) * self.k)

    def unit_images(self, m: int) -> list:
        """The units y^j, j < N, raised to p^m (the units at m = 0), kept
        under ("units", m)."""
        return self.memo(("units", m), lambda: [
            self.frobenius_p(self.elem_from_int(self.p ** j), m) for j in range(self.N)])

    def additive_zeros(self, terms) -> list:
        """F_p-basis of the zeros in the field of sum c * x^(p^m) over the
        terms (m, c): the kernel of the F_p-linear map y^j -> sum c * (y^j)^(p^m),
        j < N, read off `fp_kernel`.  Each zero leads with digit 1 at its own
        digit j, where every other zero is 0, and the leads increase: the
        basis is in reduced echelon form."""
        units = [(c, self.unit_images(m)) for m, c in terms]
        images = [fp_row(self, (functools.reduce(self.add, [self.mul(c, im[j]) for c, im in units],
                                                  self.zero),))
                  for j in range(self.N)]
        return [fp_elem(self, v) for v in fp_kernel(self.p, self.N, images)]

    def span_elements(self, basis) -> tuple:
        """The F_p-span of a basis from `additive_zeros`, in canonical element
        order: it is counted in base p over the basis, the last member
        slowest, and each member leads at a digit above every digit of the
        members before it, where every other member is 0.  For the zeros of
        an additive polynomial these are its distinct roots, found with no
        field scan.  The span is listed only up to 2^20 elements, the bound
        of the element scan."""
        if power_exceeds(self.p, len(basis), TABLE_LIMIT):
            raise GuardError("root listing refused above 2^20 roots")
        span = [self.zero]
        for w in basis:
            span = [self.add(v, self.smul(c, w)) for c in range(self.p) for v in span]
        return tuple(span)

    def in_subfield(self, a, d: int) -> bool:
        if self.n % d != 0:
            raise InputError(f"d = {d} does not divide n = {self.n}")
        return self.frobenius(a, d) == a

    def _subfield(self, d: int) -> list:
        """F_p-basis of F_{q^d}, the zeros of x^(q^d) - x, kept under
        ("subfield", d).  Requires d | n."""
        if self.n % d != 0:
            raise InputError(f"d = {d} does not divide n = {self.n}")
        return self.memo(("subfield", d), lambda: self.additive_zeros(
            [(0, self.neg(self.one)), (self.k * d, self.one)]))

    def subfield_elements(self, d: int) -> list:
        """All elements of F_{q^d}, canonical order.  Requires d | n."""
        return self.memo(("subfield_elements", d),
                         lambda: list(self.span_elements(self._subfield(d))))

    def fp_basis_of_fq(self) -> list:
        """F_p-basis of F_q, the zeros of x^q - x: 1 first, the zero led by
        digit 0."""
        return self._subfield(1)

    def subfield_basis(self, d: int) -> list:
        """An F_q-basis of F_{q^d}: the zeros of x^(q^d) - x that enlarge an
        FqSpan, in order.  Each is the least element of F_{q^d} led by its
        digit, so these are the first elements in canonical order that
        enlarge the span.  Requires d | n."""
        def build():
            span = FqSpan(self)
            return [a for a in self._subfield(d) if span.add((a,))]
        return self.memo(("subfield_basis", d), build)

    def solve_power(self, alpha, e: int):
        """Some beta with beta^e = alpha, or None: the first such power of
        the generator."""
        if alpha == self.zero:
            raise InputError("solve_power needs a nonzero target")
        if e < 1:
            raise InputError("exponent must be positive")
        return self._unit_root(alpha, e)

    def _unit_root(self, alpha, e: int):
        """solve_power on logs: g^j with e*j = log alpha mod Q-1, j least."""
        M = self.Q - 1
        a = self._log_of(alpha)
        g = math.gcd(e, M)
        if a % g != 0:
            return None
        ee, aa, mm = e // g, a // g, M // g
        j = (aa * pow(ee, -1, mm)) % mm
        return self._exp[j] or self._intern(j)

    # -- text forms -----------------------------------------------------------

    def spec_str(self) -> str:
        return f"{self.p}^{self.N}:{self.k}"

    def format_elem(self, a) -> str:
        return ",".join(str(d) for d in a)

    def parse_elem(self, s: str) -> tuple:
        s = s.strip()
        if s == "g":
            if self.N == 1:
                raise InputError("no generator digit in a prime field")
            return tuple([0, 1] + [0] * (self.N - 2))
        # ASCII decimal digits only, spaces around each: int() alone would
        # also take a sign, an underscore or a non-ASCII digit
        parts = s.split(",")
        if not (s.isascii() and all(map(str.isdigit, map(str.strip, parts)))):
            raise InputError(f"bad element {s!r}")
        digits = list(map(int, parts))
        if len(digits) > self.N:
            raise InputError(f"element {s!r} has more than {self.N} digits")
        if max(digits) >= self.p:
            raise InputError(f"element digits must lie in [0,{self.p})")
        digits += [0] * (self.N - len(digits))
        return tuple(digits)

    def __repr__(self):
        return f"{type(self).__name__}({self.p}^{self.N}:{self.k})"


class PlainField(FieldCtx):
    """The same field without tables: the element ops work digit by digit
    and multiply schoolbook-style.  It serves fields above 2^20 elements and
    the prime field of the modulus search, and it finds no generator, so it
    refuses `solve_power`."""

    def _build_table(self):
        """No tables: the ops below work on digits."""

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def smul(self, c: int, a):
        p = self.p
        return tuple([c * x % p for x in a])

    mul = FieldCtx._mul_raw
    elem_to_int = FieldCtx._digits_to_int

    def fold_each(self, fs, rows) -> list:
        """The plain `fold` of each f in fs."""
        return [self.fold(f, rows) for f in fs]

    def fold(self, f: dict, rows) -> dict:
        """`FieldCtx.fold` on digits: each exponent's digit convolutions are
        summed unreduced and reduced once."""
        p, zero = self.p, self.zero
        terms = [(e, c) for e, c in f.items() if c != zero]
        twists = {0: terms}
        convs = {}
        width = 2 * self.N - 1
        for e0, c0, m in rows:
            if c0 != zero:
                if m not in twists:
                    pm = p ** m
                    twists[m] = [(e * pm, self.frobenius_p(c, m)) for e, c in terms]
                for e, c in twists[m]:
                    e += e0
                    conv = convs.get(e)
                    if conv is None:
                        conv = convs[e] = [0] * width
                    self._conv(c0, c, conv)
        return {e: s for e, conv in convs.items() if (s := self._reduce(conv)) != zero}

    def square(self, f: dict) -> dict:
        """f*f as the plain fold, n^2 digit convolutions for n terms."""
        return self.fold(f, [(e, c, 0) for e, c in f.items()])

    def _unit_pow(self, a, e: int):
        return self._pow_raw(a, e % (self.Q - 1))

    def _unit_root(self, alpha, e: int):
        raise GuardError("generator scan refused above 2^20 elements")


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int, n: int) -> FieldCtx:
    """Deterministic field constructor; identical arguments share one context.
    A field of at most 2^20 elements gets tables, a larger one is a PlainField."""
    if power_exceeds(p, k * n, TABLE_LIMIT):
        return PlainField(p, k, n)
    return FieldCtx(p, k, n)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p^N:k" (e.g. "2^6:1" is F_64 with base F_2)."""
    s = spec.strip()
    try:
        base, _, kpart = s.partition(":")
        k = int(kpart) if kpart else 1
        pstr, _, npow = base.partition("^")
        p = int(pstr)
        N = int(npow) if npow else 1
    except ValueError as exc:
        raise InputError(f"bad field spec {spec!r}") from exc
    if k < 1:
        raise InputError(f"base exponent k = {k} must be positive")
    if N % k != 0:
        raise InputError(f"base exponent k = {k} must divide N = {N}")
    return make_field(p, k, N // k)
