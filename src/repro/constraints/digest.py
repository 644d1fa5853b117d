"""Canonical SHA-256 digests for constraints.

These digests identify a constraint *extensionally* — scope (names and
domains) plus every value — so two constraint objects with the same
meaning hash identically regardless of how they were built.  For a
semiring that lowers to NumPy (:mod:`repro.solver.kernels`) the values
are the dense array's dtype and bytes; for the others they are the
``repr`` of every table entry, sorted, plus the default.  The solve
cache fingerprints whole problems with them, the bucket cache keys
eliminated buckets on them, and the factored store maintains an
incremental digest of its factor multiset (:func:`digest_to_int` turns
each digest into an integer so a store's digest is the *sum* of its
factors' digests modulo 2**256 — order insensitive, multiset-accurate,
and O(1) to update on ``tell``).

Digests are memoized on the constraint object (``_digest_memo``):
constraints are semantically immutable, so each object pays the
materialization cost at most once.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

from .table import to_table

#: Modulus for the additive multiset digest (AdHash over SHA-256).
DIGEST_MODULUS = 1 << 256


def canon_value(value: Any) -> str:
    """A deterministic token for a semiring value or domain element.

    ``repr`` round-trips floats exactly; unordered containers are sorted
    so two equal sets always hash identically.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canon_value(v) for v in value) + ")"
    return repr(value)


def scope_signature(scope: Sequence[Any]) -> bytes:
    """The canonical bytes of a scope: names and domains, in scope order."""
    return b"".join(
        f"var {var.name}:{canon_value(var.domain)};".encode() for var in scope
    )


def constraint_digest(constraint: Any) -> str:
    """One constraint's extensional digest, memoized on the object.

    Constraints are semantically immutable, so the digest is computed
    (materializing the values) at most once per object — re-fingerprinting
    a problem built from pooled constraint objects is pure hashing.  The
    solve cache, the factored store's additive digest and the bucket
    cache all key on this one function.
    """
    memo = getattr(constraint, "_digest_memo", None)
    if memo is not None:
        return memo
    # Deferred import: the kernels build on this package.
    from ..solver.kernels import DenseFactor, lower_semiring

    piece = hashlib.sha256(scope_signature(constraint.scope))
    lowering = lower_semiring(constraint.semiring)
    if lowering is not None:
        array = DenseFactor.from_constraint(constraint, lowering).array
        piece.update(f"dtype {array.dtype.descr!r};".encode())
        piece.update(array.tobytes())
    else:
        table = to_table(constraint)
        piece.update(f"default {canon_value(table.default)};".encode())
        for key in sorted(table.table, key=repr):
            piece.update(
                f"{canon_value(key)}->{canon_value(table.table[key])};".encode()
            )
    digest = piece.hexdigest()
    constraint._digest_memo = digest
    return digest


def digest_to_int(digest: str) -> int:
    """A digest's 256-bit integer form, for additive multiset hashing."""
    return int(digest, 16)
