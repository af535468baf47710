"""Generic ring arithmetic: sparse Laurent polynomials and forward-mode
multi-derivative numbers.

Nothing in the verification suites uses these classes any more: the
classical checks run on the dense transfer kernel of `classical_chain`.
They stay in the package because the benchmark's tracer and harness
(`perfbench/`) name `albaxter.algebra.LaurentPoly` and `MultiDual` and
trace their arithmetic; the test oracles build the generic-ring Lax
matrices, monodromy and Poisson brackets on them (`tests/oracles.py`).
No module of the package imports this one.

Both classes are immutable after construction.
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


class MultiDual:
    """Complex number carrying exact first partials w.r.t. a variable list.

    Arithmetic propagates the chain rule, so polynomial and rational
    expressions built from seeded variables yield machine-exact gradients,
    not finite-difference ones.
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

