"""Core arithmetic: sparse Laurent polynomials, 2x2 matrices over a ring,
and forward-mode multi-derivative numbers.

Everything here is immutable after construction and safe to share between
threads.  The Laurent/matrix classes are generic over their entry ring:
plain complex numbers and :class:`MultiDual`.

Users: `classical_chain.poisson_bracket` differentiates user-supplied
observables with MultiDual.  The classical checks run on the dense
transfer kernel of `classical_chain`; its `local_lax`, `monodromy` and
`observable_*` build the same objects over these generic classes as
small-N oracles for that kernel.
"""

import numbers

import numpy as np

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)

# exponents stay tiny at desk scale; anything this large is a bug upstream
_MAX_EXPONENT = 2**31


def _magnitude(c):
    """Rough size of a coefficient, used only for pruning decisions."""
    if isinstance(c, _SCALARS):
        return abs(c)
    if isinstance(c, MultiDual):
        return c.magnitude()
    return float(abs(c))


class LaurentPoly:
    """Sparse Laurent polynomial in the spectral parameter.

    Coefficients live in ``coeffs``, a dict mapping integer exponent to a
    ring element.  Addition and multiplication are exact in the exponents;
    scalar coefficients smaller than 1e-15 times the largest one are pruned
    after arithmetic (MultiDual coefficients only when their magnitude is
    below 1e-300, so their partials are never dropped).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            mags = {e: _magnitude(c) for e, c in coeffs.items()}
            top = max(mags.values(), default=0.0)
            for e, c in coeffs.items():
                if abs(e) > _MAX_EXPONENT:
                    raise OverflowError(f"Laurent exponent {e} out of range")
                m = mags[e]
                if m <= 1e-300:
                    continue
                if isinstance(c, _SCALARS) and m < 1e-15 * top:
                    continue
                cleaned[int(e)] = c
        self.coeffs = cleaned

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def x(cls, exponent=1, coeff=1.0):
        return cls({exponent: coeff})

    @property
    def support(self):
        return sorted(self.coeffs)

    def coeff(self, exponent, zero=0.0):
        return self.coeffs.get(exponent, zero)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return LaurentPoly(out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return LaurentPoly({e: other * c for e, c in self.coeffs.items()})
        return NotImplemented

    def eval(self, lam):
        """Evaluate at a nonzero point (zero is fine if no negative powers)."""
        if lam == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroDivisionError("negative Laurent exponents at lambda=0")
        acc = None
        for e, c in self.coeffs.items():
            term = c * (lam**e)
            acc = term if acc is None else acc + term
        return 0.0 if acc is None else acc

    def __call__(self, lam):
        return self.eval(lam)

    def __repr__(self):
        terms = ", ".join(f"{e}: {c!r}" for e, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({{{terms}}})"


def laurent_mul(p, q):
    return p * q


def laurent_eval(p, lam):
    return p.eval(lam)


class Mat2:
    """2x2 matrix over a commutative ring: complex numbers, MultiDual, or
    LaurentPoly over either."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def trace(self):
        return self.a11 + self.a22

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def __repr__(self):
        return f"Mat2({self.a11!r}, {self.a12!r}, {self.a21!r}, {self.a22!r})"


def mat2_mul(a, b):
    return a @ b


class MultiDual:
    """Complex number carrying exact first partials w.r.t. a variable list.

    Arithmetic propagates the chain rule, so polynomial and rational
    expressions built from seeded variables yield machine-exact gradients.
    That is what makes the Poisson-bracket checks 1e-12-class instead of
    finite-difference-class.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = complex(value)
        self.partials = np.asarray(partials, dtype=complex)

    @classmethod
    def variable(cls, value, index, nvars):
        p = np.zeros(nvars, dtype=complex)
        p[index] = 1.0
        return cls(value, p)

    def magnitude(self):
        pm = float(np.abs(self.partials).max()) if self.partials.size else 0.0
        return abs(self.value) + pm

    def _lift(self, other):
        if isinstance(other, MultiDual):
            return other
        if isinstance(other, _SCALARS):
            return MultiDual(other, np.zeros_like(self.partials))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return MultiDual(self.value + o.value, self.partials + o.partials)

    __radd__ = __add__

    def __neg__(self):
        return MultiDual(-self.value, -self.partials)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return MultiDual(self.value - o.value, self.partials - o.partials)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return MultiDual(self.value * o.value,
                         self.partials * o.value + self.value * o.partials)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        v = self.value / o.value
        return MultiDual(v, (self.partials - v * o.partials) / o.value)

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        v = other / self.value
        return MultiDual(v, -v * self.partials / self.value)

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        if n == 0:
            return MultiDual(1.0, np.zeros_like(self.partials))
        if n < 0:
            return 1.0 / self**(-n)
        v = self.value**n
        return MultiDual(v, n * self.value**(n - 1) * self.partials)

    def exp(self):
        v = np.exp(self.value)
        return MultiDual(v, v * self.partials)

    def log(self):
        return MultiDual(np.log(self.value), self.partials / self.value)

    def sqrt(self):
        v = np.sqrt(self.value)
        return MultiDual(v, 0.5 * self.partials / v)

    def __repr__(self):
        return f"MultiDual({self.value!r}, {self.partials!r})"


def seed_duals(values, offset, nvars):
    """Seed an array of values as independent variables offset..offset+len-1."""
    return [MultiDual.variable(v, offset + i, nvars) for i, v in enumerate(values)]
