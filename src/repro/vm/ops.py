"""Pure scalar/lane semantics of the VM, decoupled from the interpreter.

Every function here is a *pure* evaluator over Python values: no interpreter
state, no memory, no RNG.  Three consumers share them so compile-time and
run-time semantics can never disagree (a hard requirement for a fault
injector, where the golden run defines ground truth):

* the :mod:`repro.vm.decode` pre-decoder, which specialises them into
  per-instruction closures;
* the :class:`repro.vm.interpreter.Interpreter`, for the handful of paths
  that are not pre-decoded;
* the :mod:`repro.passes.constfold` pass, which folds IR with exactly the
  semantics the VM would produce at run time.

The ``*_fn`` builders return a callable specialised for one (opcode, type)
pair — the dispatch happens once per static instruction at decode time, not
once per dynamic instruction at execution time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import ArithmeticTrap, InvalidOperation
from ..ir.types import FloatType, IntType, PointerType, Type
from .bits import (
    bits_to_float,
    float_to_bits,
    float_to_int_trunc,
    float_to_uint_trunc,
    np_dtype,
    np_uint_view,
    quiet_nan_f32,
    round_f32,
    to_unsigned,
    wrap_int,
)


def sign_active(lane_value, lane_type: Type) -> bool:
    """x86 mask convention: a lane is active when its sign bit is set."""
    if isinstance(lane_type, FloatType):
        return bool(float_to_bits(lane_value, lane_type.bits) >> (lane_type.bits - 1))
    return lane_value < 0


# -- binary arithmetic ---------------------------------------------------------


def fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a != a or a == 0.0:
            return float("nan")
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf * sign
    return a / b


def scalar_binop(op: str, ty: Type, a, b):
    """One binary operation on scalar operands of IR type ``ty``."""
    if isinstance(ty, FloatType):
        if op == "fadd":
            r = a + b
        elif op == "fsub":
            r = a - b
        elif op == "fmul":
            r = a * b
        elif op == "fdiv":
            r = fdiv(a, b)
        elif op == "frem":
            r = (
                math.fmod(a, b)
                if b != 0 and not math.isnan(a) and not math.isinf(a)
                else float("nan")
            )
        else:  # pragma: no cover - constructor prevents this
            raise InvalidOperation(f"bad float op {op}")
        return round_f32(r) if ty.bits == 32 else r

    bits = ty.bits
    if op == "add":
        return wrap_int(a + b, bits)
    if op == "sub":
        return wrap_int(a - b, bits)
    if op == "mul":
        return wrap_int(a * b, bits)
    if op == "sdiv":
        if b == 0:
            raise ArithmeticTrap("signed division by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if q > (1 << (bits - 1)) - 1:
            raise ArithmeticTrap("signed division overflow (INT_MIN / -1)")
        return wrap_int(q, bits)
    if op == "srem":
        if b == 0:
            raise ArithmeticTrap("signed remainder by zero")
        r = abs(a) % abs(b)
        return wrap_int(-r if a < 0 else r, bits)
    if op == "udiv":
        if b == 0:
            raise ArithmeticTrap("unsigned division by zero")
        return wrap_int(to_unsigned(a, bits) // to_unsigned(b, bits), bits)
    if op == "urem":
        if b == 0:
            raise ArithmeticTrap("unsigned remainder by zero")
        return wrap_int(to_unsigned(a, bits) % to_unsigned(b, bits), bits)
    if op == "and":
        return wrap_int(a & b, bits)
    if op == "or":
        return wrap_int(a | b, bits)
    if op == "xor":
        return wrap_int(a ^ b, bits)
    # x86 semantics: the shift count is masked to the operand width.
    if op == "shl":
        return wrap_int(a << (b & (bits - 1)), bits)
    if op == "lshr":
        return wrap_int(to_unsigned(a, bits) >> (b & (bits - 1)), bits)
    if op == "ashr":
        return wrap_int(a >> (b & (bits - 1)), bits)
    raise InvalidOperation(f"bad int op {op}")  # pragma: no cover


def binop_fn(op: str, ty: Type) -> Callable:
    """A specialised ``(a, b) -> result`` evaluator for one scalar type.

    The common wrap-free (bitwise) and simple-rounding (f32 add/sub/mul)
    cases get direct lambdas; everything else falls back to
    :func:`scalar_binop` with the opcode and type pre-bound.
    """
    if isinstance(ty, FloatType):
        if ty.bits == 32:
            simple = {
                "fadd": lambda a, b: round_f32(a + b),
                "fsub": lambda a, b: round_f32(a - b),
                "fmul": lambda a, b: round_f32(a * b),
            }.get(op)
        else:
            simple = {
                "fadd": lambda a, b: a + b,
                "fsub": lambda a, b: a - b,
                "fmul": lambda a, b: a * b,
            }.get(op)
        if simple is not None:
            return simple
    elif isinstance(ty, IntType):
        bits = ty.bits
        simple = {
            "add": lambda a, b: wrap_int(a + b, bits),
            "sub": lambda a, b: wrap_int(a - b, bits),
            "mul": lambda a, b: wrap_int(a * b, bits),
            # Bitwise ops on canonical two's-complement values stay in
            # range; no re-wrap needed.
            "and": lambda a, b: a & b,
            "or": lambda a, b: a | b,
            "xor": lambda a, b: wrap_int(a ^ b, bits),
        }.get(op)
        if simple is not None:
            return simple
    return lambda a, b, _op=op, _ty=ty: scalar_binop(_op, _ty, a, b)


# -- comparisons ---------------------------------------------------------------


def scalar_compare(opcode: str, pred: str, ty: Type, a, b) -> bool:
    if opcode == "icmp":
        if isinstance(ty, PointerType):
            ua, ub = a & (2**64 - 1), b & (2**64 - 1)
        else:
            ua, ub = to_unsigned(a, ty.bits), to_unsigned(b, ty.bits)
        return {
            "eq": a == b,
            "ne": a != b,
            "slt": a < b,
            "sle": a <= b,
            "sgt": a > b,
            "sge": a >= b,
            "ult": ua < ub,
            "ule": ua <= ub,
            "ugt": ua > ub,
            "uge": ua >= ub,
        }[pred]
    # fcmp: o* are false on NaN, u* are true on NaN.
    nan = (a != a) or (b != b)
    if pred == "ord":
        return not nan
    if pred == "uno":
        return nan
    ordered = pred.startswith("o")
    if nan:
        return not ordered
    rel = pred[1:]
    return {
        "eq": a == b,
        "ne": a != b,
        "lt": a < b,
        "le": a <= b,
        "gt": a > b,
        "ge": a >= b,
    }[rel]


_SIGNED_ICMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}


def compare_fn(opcode: str, pred: str, ty: Type) -> Callable:
    """A specialised ``(a, b) -> bool`` evaluator for one compare."""
    if opcode == "icmp":
        direct = _SIGNED_ICMP.get(pred)
        if direct is not None:
            return direct
    return lambda a, b, _o=opcode, _p=pred, _t=ty: scalar_compare(_o, _p, _t, a, b)


# -- casts ---------------------------------------------------------------------


def scalar_cast(op: str, src: Type, dst: Type, v):
    if op == "bitcast":
        if src.is_pointer() and dst.is_pointer():
            return v
        if src.is_integer() and dst.is_float():
            return bits_to_float(to_unsigned(v, src.bits), dst.bits)
        if src.is_float() and dst.is_integer():
            return wrap_int(float_to_bits(v, src.bits), dst.bits)
        if src.is_integer() and dst.is_integer():
            return wrap_int(v, dst.bits)
        if src.is_float() and dst.is_float():
            return v
        raise InvalidOperation(f"bad bitcast {src} -> {dst}")
    if op == "zext":
        return wrap_int(to_unsigned(v, src.bits), dst.bits)
    if op == "sext":
        # i1 is canonicalized as 0/1; its sign-extension is 0/-1.
        if src.bits == 1:
            return wrap_int(-v, dst.bits)
        return wrap_int(v, dst.bits)
    if op == "trunc":
        return wrap_int(v, dst.bits)
    if op == "sitofp":
        r = float(v)
        return round_f32(r) if dst.bits == 32 else r
    if op == "uitofp":
        r = float(to_unsigned(v, src.bits))
        return round_f32(r) if dst.bits == 32 else r
    if op == "fptosi":
        return float_to_int_trunc(v, dst.bits)
    if op == "fptoui":
        return float_to_uint_trunc(v, dst.bits)
    if op == "fpext":
        return v
    if op == "fptrunc":
        return round_f32(v)
    if op == "ptrtoint":
        return wrap_int(v, dst.bits)
    if op == "inttoptr":
        return to_unsigned(v, 64)
    raise InvalidOperation(f"bad cast {op}")  # pragma: no cover


def cast_fn(op: str, src: Type, dst: Type) -> Callable:
    """A specialised ``(v) -> result`` evaluator for one scalar cast."""
    return lambda v, _o=op, _s=src, _d=dst: scalar_cast(_o, _s, _d, v)


# -- math intrinsics -----------------------------------------------------------


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _safe_log(x: float) -> float:
    if x > 0:
        return math.log(x)
    if x == 0:
        return -math.inf
    return float("nan")


def _safe_trig(fn: Callable[[float], float]) -> Callable[[float], float]:
    """``fn`` with C's NaN for ±inf, where ``math.sin``/``math.cos`` raise."""

    def f(x: float) -> float:
        try:
            return fn(x)
        except ValueError:
            return float("nan")

    return f


def _safe_pow(x: float, y: float) -> float:
    try:
        r = math.pow(x, y)
    except (OverflowError, ValueError):
        return float("nan") if x < 0 else math.inf
    return r


def ieee_min(x: float, y: float) -> float:
    if x != x:
        return y
    if y != y:
        return x
    return min(x, y)


def ieee_max(x: float, y: float) -> float:
    if x != x:
        return y
    if y != y:
        return x
    return max(x, y)


MATH_FNS = {
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "fabs": math.fabs,
    "exp": _safe_exp,
    "log": _safe_log,
    "sin": _safe_trig(math.sin),
    "cos": _safe_trig(math.cos),
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": _safe_pow,
    "minnum": ieee_min,
    "maxnum": ieee_max,
    "copysign": math.copysign,
}


# -- reductions ----------------------------------------------------------------


def _reduce_fminmax(vec, fn, f32: bool) -> float:
    acc = vec[0]
    for x in vec[1:]:
        acc = fn(acc, x)
    return round_f32(acc) if f32 else acc


def reduce_intrinsic(name: str, ret: Type, args: list):
    """Evaluate a ``llvm.vector.reduce.*`` intrinsic."""
    op = name.split(".")[3]
    f32 = isinstance(ret, FloatType) and ret.bits == 32
    if op == "fadd":
        acc = args[0]
        for x in args[1]:
            acc = acc + x
            if f32:
                acc = round_f32(acc)
        return acc
    if op == "fmul":
        acc = args[0]
        for x in args[1]:
            acc = acc * x
            if f32:
                acc = round_f32(acc)
        return acc
    vec = args[0]
    if isinstance(ret, IntType):
        bits = ret.bits
        if op == "add":
            return wrap_int(sum(vec), bits)
        if op == "mul":
            acc = 1
            for x in vec:
                acc = wrap_int(acc * x, bits)
            return acc
        if op == "and":
            acc = -1 if bits > 1 else 1
            for x in vec:
                acc &= x
            return wrap_int(acc, bits)
        if op == "or":
            acc = 0
            for x in vec:
                acc |= x
            return wrap_int(acc, bits)
        if op == "xor":
            acc = 0
            for x in vec:
                acc ^= x
            return wrap_int(acc, bits)
        if op == "smax":
            return max(vec)
        if op == "smin":
            return min(vec)
        if op == "umax":
            return wrap_int(max(to_unsigned(x, bits) for x in vec), bits)
        if op == "umin":
            return wrap_int(min(to_unsigned(x, bits) for x in vec), bits)
    if op == "fmax":
        return _reduce_fminmax(vec, ieee_max, f32)
    if op == "fmin":
        return _reduce_fminmax(vec, ieee_min, f32)
    raise InvalidOperation(f"unhandled reduction {name}")


# -- bulk (packed ndarray) evaluators ------------------------------------------
#
# The compiled engine's batched tier evaluates whole vectors as single NumPy
# calls.  Each ``*_bulk`` builder returns a callable over packed ndarrays
# that is *bit-identical* to mapping the scalar evaluator above over the
# canonical lane list, or ``None`` when no such callable exists (the caller
# then keeps the unrolled per-lane emission):
#
# * f32 add/sub/mul/div: hardware binary32 equals the scalar path's
#   compute-in-binary64-then-round because binary64 carries more than
#   2p + 2 significand bits (Figueroa's no-double-rounding bound), and NaN
#   propagation is the same SSE hardware in both;
# * ``fdiv``'s one semantic divergence — x/0 with x NaN or ±0 substitutes
#   a canonical quiet NaN in :func:`fdiv` — is patched by a post-condition
#   mask;
# * integer add/sub/mul wrap silently in C just like ``wrap_int``; shifts
#   mask the count to the width through unsigned views (x86), ``ashr``
#   stays signed;
# * trapping ops (div/rem) and ``frem`` are declined — traps must carry
#   per-lane messages and exact step accounting.
#
# Predicates return int8 0/1 arrays (``tolist`` of which reproduces the
# canonical ``int(bool)`` lanes the unrolled compare emits).


def binop_bulk(op: str, ty: Type):
    """A packed ``(a, b) -> ndarray`` evaluator, or ``None``."""
    dtype = np_dtype(ty)
    if dtype is None:
        return None
    if isinstance(ty, FloatType):
        simple = {"fadd": np.add, "fsub": np.subtract, "fmul": np.multiply}.get(op)
        if simple is not None:
            return simple
        if op == "fdiv":

            def bulk_fdiv(a, b):
                r = np.divide(a, b)
                bad = (b == 0) & (np.isnan(a) | (a == 0))
                if bad.any():
                    r[bad] = np.nan
                return r

            return bulk_fdiv
        return None
    bits = ty.bits
    if bits == 1:
        # i1 lanes are canonical 0/1: only the closed bitwise ops batch.
        return {
            "and": np.bitwise_and,
            "or": np.bitwise_or,
            "xor": np.bitwise_xor,
        }.get(op)
    simple = {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
        "and": np.bitwise_and,
        "or": np.bitwise_or,
        "xor": np.bitwise_xor,
    }.get(op)
    if simple is not None:
        return simple
    u = np_uint_view(dtype)
    if op == "shl":
        return lambda a, b: (a.view(u) << (b & (bits - 1)).view(u)).view(dtype)
    if op == "lshr":
        return lambda a, b: (a.view(u) >> (b & (bits - 1)).view(u)).view(dtype)
    if op == "ashr":
        return lambda a, b: a >> (b & (bits - 1))
    return None


def fneg_bulk(ty: Type):
    """A packed ``(a) -> ndarray`` fneg, or ``None`` for non-float lanes.

    Sign-bit XOR through the uint view rather than an FP negate, so even a
    raw signalling-NaN lane keeps its payload bit-for-bit — exactly what the
    scalar path's C-level ``-x`` does.
    """
    if not isinstance(ty, FloatType):
        return None
    dtype = np_dtype(ty)
    u = np_uint_view(dtype)
    sign = u(1 << (ty.bits - 1))
    return lambda a: (a.view(u) ^ sign).view(dtype)


_FCMP_BULK = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: (a < b) | (a > b),
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
    "ueq": lambda a, b: ~((a < b) | (a > b)),
    "une": lambda a, b: a != b,
    "ult": lambda a, b: ~(a >= b),
    "ule": lambda a, b: ~(a > b),
    "ugt": lambda a, b: ~(a <= b),
    "uge": lambda a, b: ~(a < b),
    "ord": lambda a, b: (a == a) & (b == b),
    "uno": lambda a, b: ~((a == a) & (b == b)),
}

_UNSIGNED_ICMP_BULK = {
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}


def compare_bulk(opcode: str, pred: str, ty: Type):
    """A packed ``(a, b) -> int8 ndarray`` evaluator, or ``None``."""
    dtype = np_dtype(ty)
    if dtype is None:
        return None
    if opcode == "icmp":
        direct = _SIGNED_ICMP.get(pred)
        if direct is not None:
            return lambda a, b, _f=direct: _f(a, b).view(np.int8)
        unsigned = _UNSIGNED_ICMP_BULK.get(pred)
        if unsigned is None:
            return None
        u = np_uint_view(dtype)
        return lambda a, b, _f=unsigned: _f(a.view(u), b.view(u)).view(np.int8)
    fn = _FCMP_BULK.get(pred)
    if fn is None:
        return None
    # NaN-aware by construction: ordered predicates are plain comparisons
    # (False on NaN), unordered ones their complements (True on NaN).
    return lambda a, b, _f=fn: _f(a, b).view(np.int8)


def cast_bulk(op: str, src: Type, dst: Type):
    """A packed ``(a) -> ndarray`` evaluator for one cast, or ``None``."""
    sdt = np_dtype(src)
    ddt = np_dtype(dst)
    if sdt is None or ddt is None:
        return None
    if op == "bitcast":
        if src.bits != dst.bits:
            return None
        if src.is_float() and dst.is_integer():
            # The scalar path's struct.unpack quiets f32 signalling NaNs on
            # load; packed arrays defer that to this escape point.
            if src.bits == 32:
                return lambda a: quiet_nan_f32(a).view(ddt)
            return lambda a: a.view(ddt)
        if src.is_integer() and dst.is_float():
            return lambda a: a.view(ddt)
        return lambda a: a  # same-type reinterpretation
    if op == "zext":
        if dst.bits == 1:
            return None
        if src.bits == 1:
            return lambda a: a.astype(ddt)  # canonical 0/1
        us, ud = np_uint_view(sdt), np_uint_view(ddt)
        return lambda a: a.view(us).astype(ud).view(ddt)
    if op == "sext":
        if dst.bits == 1:
            return None
        if src.bits == 1:
            return lambda a: (-a).astype(ddt)  # 0/1 -> 0/-1, then widen
        return lambda a: a.astype(ddt)
    if op == "trunc":
        if dst.bits == 1:
            return lambda a: (a & 1).astype(np.int8)
        mask = (1 << dst.bits) - 1
        ud = np_uint_view(ddt)
        # a & mask is the value's low bits as a nonnegative int in the
        # source dtype; the uint downcast is value-preserving, the final
        # view re-signs it — exactly wrap_int(v, dst.bits).
        return lambda a: (a & mask).astype(ud).view(ddt)
    if op == "sitofp":
        if dst.bits == 32:
            # float(v) then round_f32: binary64 first, then narrow — the
            # double rounding is part of the scalar semantics, so the
            # batched path reproduces it verbatim.
            return lambda a: a.astype(np.float64).astype(np.float32)
        return lambda a: a.astype(np.float64)
    if op == "uitofp":
        us = np_uint_view(sdt)
        if dst.bits == 32:
            return lambda a: a.view(us).astype(np.float64).astype(np.float32)
        return lambda a: a.view(us).astype(np.float64)
    if op == "fptosi":
        return _fptosi_bulk(ddt, dst.bits)
    if op == "fptoui":
        return _fptoui_bulk(ddt, dst.bits)
    if op == "fpext":
        return lambda a: a.astype(np.float64)
    if op == "fptrunc":
        return lambda a: a.astype(np.float32)
    return None


def _fptosi_bulk(ddt, bits: int):
    lo = -(1 << (bits - 1))
    lim = float(1 << (bits - 1))  # exact power of two

    def bulk(a):
        t = np.trunc(a.astype(np.float64))
        # NaN fails t >= -lim, so `bad` needs no separate isnan test.  The
        # float bounds are exact: no integer-valued double lies strictly
        # between the signed range and ±2^(bits-1).
        bad = ~(t >= -lim) | (t >= lim)
        r = np.where(bad, 0.0, t).astype(ddt)
        if bad.any():
            r[bad] = lo  # cvttss2si "integer indefinite"
        return r

    return bulk


def _fptoui_bulk(ddt, bits: int):
    sentinel = wrap_int(1 << (bits - 1), bits)
    lim = float(1 << bits)
    ud = np_uint_view(ddt)

    def bulk(a):
        t = np.trunc(a.astype(np.float64))
        bad = ~(t >= 0.0) | (t >= lim)
        r = np.where(bad, 0.0, t).astype(ud).view(ddt)
        if bad.any():
            r[bad] = sentinel
        return r

    return bulk
